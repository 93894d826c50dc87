"""Dense support searches and the dense restricted generator, as oracles.

``reference_invariant_support`` takes one 0/1 product per term of the
structure and per block of the frontier, summed into a float image; the
hierarchy tests read the support of block stacks from it.
``dense_invariant_support`` searches one state with one batched 0/1
product of all terms per step.  ``cobath.master_equation.invariant_support``
(a worklist over the terms' nonzeros) must return the same index array,
dtype included, as both.  ``dense_generator`` assembles L[S, S] from
|S| x |S| products of every term; the library's generator, which fills
only the entries some term reaches, must be bitwise the same.
"""

import numpy as np

from cobath.master_equation import jump_superoperator, kron_on


def reference_invariant_support(y0, structure):
    """Flat indices of the support of ``y0``, one d x d block or a stack of them.

    ``structure`` lists the generator's terms as (shift, X, Y): block b
    feeds X rho_b Y into block b + shift.
    """
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


def dense_invariant_support(y0, structure):
    """Flat indices of the support of the d x d state ``y0``; ``structure``
    lists the generator's terms as (X, Y), each mapping rho to X rho Y."""
    # the 0/1 patterns of the terms, one (T, d, d) stack per side
    xs = np.array([x != 0 for x, _ in structure], dtype=float)
    ys = np.array([y != 0 for _, y in structure], dtype=float)
    reached = frontier = y0 != 0
    while frontier.any():
        # only the rows and columns the new entries occupy enter the products
        rows = np.flatnonzero(frontier.any(axis=1))
        cols = np.flatnonzero(frontier.any(axis=0))
        f = frontier[np.ix_(rows, cols)].astype(float)
        frontier = (xs[:, :, rows] @ f @ ys[:, cols] > 0).any(axis=0) & ~reached
        reached = reached | frontier
    return np.flatnonzero(reached)


def dense_generator(me, support):
    """L[S, S] of the master equation ``me`` on the flat row-major entries
    ``support``, every entry from the products of the kron assembly."""
    d = me.space.total_dim
    b = me.B
    kron = kron_on(d, support[:, None], support[None, :])
    eye = np.eye(d, dtype=complex)
    return -1j * (kron(b, eye) - kron(eye, b.conj())) + jump_superoperator(me.terms, kron)
