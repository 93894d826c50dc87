"""The eigenoperator split and the embedded JC operators, as oracles.

``decompose`` diagonalizes a Hamiltonian with degeneracy clustering and
``full_product_eigenoperators`` splits a coupling operator A against it
into its frequency components A(w) (Breuer & Petruccione, The Theory of
Open Quantum Systems, 2002), with the two d x d basis changes of every
component, A(w) = V (mask_w o V^dag A V) V^dag, and one Python step per
kept cluster pair.  ``cobath.jc.build_jc`` declares its couplings
instead: S_+ and a_dag at -omega0, S_- and a at +omega0.  Split against
the bare Hamiltonian, S_+ + S_- and a + a_dag must give those components
bit for bit, in the same order.

``embedded_hamiltonians`` builds the JC ladder operators and Hamiltonians
as products of embedded single-factor matrices; ``cobath.jc._hamiltonians``
sets the same entries directly and must return the same bits.

``build_dressed_jc`` is ``cobath.jc.build_jc`` with the couplings split
against the full Hamiltonian instead of the bare one: sideband
frequencies, and no exact basis-vector eigenvectors, for the split and
support tests.
"""

from dataclasses import dataclass

import numpy as np

from cobath.core import HilbertSpace, Operator, StatePattern, _freeze
from cobath.jc import _hamiltonians, jc_space
from cobath.master_equation import FREQ_MATCH_TOL, EigenOperator, MasterEquation, SpectralTensor
from operator_reference import make_atom_ops, make_cavity_ops

# zero-norm frequency blocks would pollute the dissipator sums
BLOCK_DROP_TOL = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigenvalues and the read-only eigenvector columns they came
    from; cluster k spans the columns from ``starts[k]`` to the next start."""

    space: HilbertSpace
    eigenvalues: tuple[float, ...]
    vectors: np.ndarray
    starts: tuple[int, ...]
    degeneracy_tol: float

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.starts):
            raise ValueError("eigenvalue/cluster count mismatch")
        evs = sorted(self.eigenvalues)
        for i in range(len(evs) - 1):
            if evs[i + 1] - evs[i] <= self.degeneracy_tol:
                raise ValueError("clustered eigenvalues are not separated beyond degeneracy_tol")

    @property
    def projectors(self) -> tuple[Operator, ...]:
        """Eigenspace projector of each cluster, in eigenvalue order."""
        runs = np.split(self.vectors, self.starts[1:], axis=1)
        return tuple(Operator(self.space, v @ v.conj().T) for v in runs)


def _default_tol(eigenvalues: np.ndarray) -> float:
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return 1e-8 * scale


def decompose(H: Operator, degeneracy_tol: float | None = None) -> SpectralDecomposition:
    """Diagonalize a Hermitian operator, merging eigenvalues closer than the tolerance.

    ``eigh`` runs inside each connected block of H's exact nonzero pattern
    (one stacked call per block size), so roundoff never mixes the sectors
    of a conserved count such as the JC excitation number; a matrix with no
    exact zeros is one block.  Eigenpairs are sorted by eigenvalue (stable):
    exactly equal eigenvalues keep the order the blocks are diagonalized in,
    smaller blocks first, blocks of one size by their least index, and
    each block's own ``eigh`` order.  A non-finite entry is a ValueError.
    """
    if not np.isfinite(H.matrix).all():
        raise ValueError("Hamiltonian has non-finite entries")
    herm_defect = float(np.max(np.abs(H.matrix - H.matrix.conj().T)))
    if herm_defect > 1e-9 * max(1.0, float(np.max(np.abs(H.matrix)))):
        raise ValueError(f"Hamiltonian not Hermitian: max |H - H^dag| = {herm_defect:.3e}")
    h = (H.matrix + H.matrix.conj().T) / 2.0
    d = len(h)
    evals, vecs, done = np.empty(d), np.zeros_like(h), 0
    for idx in StatePattern.of(h).groups:  # one row per block, one array per block size
        cols = done + np.arange(idx.size).reshape(idx.shape)
        evals[cols], vecs[idx[:, :, None], cols[:, None, :]] = np.linalg.eigh(
            h[idx[:, :, None], idx[:, None, :]]
        )
        done += idx.size
    order = np.argsort(evals, kind="stable")
    evals, vecs = evals[order], vecs[:, order]
    tol = _default_tol(evals) if degeneracy_tol is None else float(degeneracy_tol)
    # sorted ascending, so each cluster is a contiguous run of columns; the
    # means are taken per run length, each row the bits of np.mean of its run
    starts = np.flatnonzero(np.diff(evals, prepend=-np.inf) > tol)
    sizes = np.diff(starts, append=d)
    means = np.empty(len(starts))
    for s in np.flatnonzero(np.bincount(sizes)):  # each run length once
        runs = np.flatnonzero(sizes == s)
        means[runs] = evals[starts[runs, None] + np.arange(s)].mean(axis=1)
    return SpectralDecomposition(
        H.space, tuple(means.tolist()), _freeze(vecs), tuple(starts.tolist()), tol
    )


def build_dressed_jc(p):
    """The JC master equation with its channels split against the full
    Hamiltonian, the shared-bath rate matrix flat across their positive
    frequencies."""
    space = jc_space(p)
    atom, cav, _, h_full = _hamiltonians(p, space)
    decomp = decompose(h_full)
    fam1 = tuple(full_product_eigenoperators(atom["S_plus"] + atom["S_minus"], decomp, 0))
    fam2 = tuple(full_product_eigenoperators(cav["a"] + cav["a_dag"], decomp, 1))
    g = np.array([[p.g11, p.g12], [np.conj(p.g12), p.cavity_rate]], dtype=complex)
    emitting = [eo.frequency for fam in (fam1, fam2) for eo in fam if eo.frequency > FREQ_MATCH_TOL]
    freqs = sorted({round(w, 12) for w in emitting})
    tensor = SpectralTensor(tuple(freqs), tuple(g for _ in freqs))
    return MasterEquation(Operator(space, h_full.matrix, label="H_S"), (fam1, fam2), tensor)


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
    """Components of A against ``decomp``, ascending in w, as the dense
    products give them.

    Each cluster pair (i, j) whose V^dag A V block has an entry of modulus
    >= ``drop_tol`` sits at w = eps_j - eps_i and joins the first
    frequency (row-major) within the decomposition's tolerance; components
    with Frobenius norm below ``drop_tol`` are dropped.  They sum back to A.
    """
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
