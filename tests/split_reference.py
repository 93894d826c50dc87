"""The full-product split and the embedded JC operators, as oracles.

``full_product_eigenoperators`` splits a coupling operator with the two
d x d basis changes of every component, A(w) = V (mask_w o V^dag A V) V^dag,
and one Python step per kept cluster pair.  ``cobath.eigenops.eigenoperators``
keys its pairs once per distinct frequency, and where V is a permutation
its products become re-indexings.  It must return the same components,
bit for bit on the JC splits and wherever V is not a permutation; against
a permutation the BLAS products may leave a zero with the other sign.

``embedded_hamiltonians`` builds the JC ladder operators and Hamiltonians
as products of embedded single-factor matrices; ``cobath.jc._hamiltonians``
sets the same entries directly and must return the same bits.
"""

import numpy as np

from cobath.core import Operator, make_atom_ops, make_cavity_ops
from cobath.eigenops import BLOCK_DROP_TOL, EigenOperator


def embedded_hamiltonians(p, space):
    """(atom ops, mode ops, bare H, full H) of the JC model from embedded products."""
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    h_bare = 0.5 * p.omega0 * atom["S_z"] + p.omega0 * cav["n_op"]
    h_int = p.eps * (cav["a"] @ atom["S_plus"]) + np.conj(p.eps) * (
        cav["a_dag"] @ atom["S_minus"]
    )
    return atom, cav, h_bare, h_bare + h_int


def full_product_eigenoperators(A, decomp, source_index=0, drop_tol=BLOCK_DROP_TOL):
    """Components of A against ``decomp``, as the dense products give them."""
    V = decomp.vectors
    a = V.conj().T @ A.matrix @ V
    starts = np.asarray(decomp.starts)
    peak = np.maximum.reduceat(np.maximum.reduceat(np.abs(a), starts, axis=0), starts, axis=1)
    cluster = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(V)))

    freqs = []
    group = np.full(peak.shape, -1)  # frequency index of each kept cluster pair
    for i, j in zip(*np.nonzero(peak >= drop_tol)):
        w = decomp.eigenvalues[j] - decomp.eigenvalues[i]
        near = (k for k, f in enumerate(freqs) if abs(f - w) <= decomp.degeneracy_tol)
        group[i, j] = next(near, len(freqs))
        if group[i, j] == len(freqs):
            freqs.append(w)
    group = group[np.ix_(cluster, cluster)]  # now per entry of A~

    out = []
    for key, w in sorted(enumerate(freqs), key=lambda kw: kw[1]):
        m = V @ np.where(group == key, a, 0.0) @ V.conj().T
        if float(np.linalg.norm(m)) < drop_tol:
            continue
        out.append(
            EigenOperator(w, Operator(A.space, m, label=f"{A.label}({w:g})"), source_index)
        )
    return out
