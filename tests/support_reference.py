"""The per-term support search that ``cobath.master_equation.invariant_support`` replaced.

One 0/1 product per term of the structure and per block of the frontier,
summed into a float image.  The batched implementation must return the
same index array on every input; ``tests/test_master_equation.py``
compares the two.
"""

import numpy as np


def reference_invariant_support(y0, structure):
    """``invariant_support`` as it was: same arguments, same flat indices."""
    d = y0.shape[-1]
    reached = (y0 != 0).reshape(-1, d, d)
    pats = [(s, (x != 0).astype(float), (y != 0).astype(float)) for s, x, y in structure]
    frontier = reached
    while frontier.any():
        image = np.zeros(reached.shape)
        for b in np.flatnonzero(frontier.any(axis=(1, 2))):
            rows = np.flatnonzero(frontier[b].any(axis=1))
            cols = np.flatnonzero(frontier[b].any(axis=0))
            f = frontier[b][np.ix_(rows, cols)].astype(float)
            for shift, x, y in pats:
                if 0 <= b + shift < len(image):
                    image[b + shift] += x[:, rows] @ f @ y[cols]
        frontier = (image > 0) & ~reached
        reached = reached | frontier
    return np.flatnonzero(reached)
