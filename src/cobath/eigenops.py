"""Spectral decomposition of Hamiltonians and ladder eigenoperators.

For a Hermitian H with (clustered) eigenvalues eps and projectors P(eps),
a Hermitian coupling operator A splits into frequency components

    A(w) = sum_{eps' - eps = w} P(eps) A P(eps'),

each satisfying [H, A(w)] = -w A(w), A(w)^dag = A(-w), and
sum_w A(w) = A.  These components are the jump-channel building blocks of
the dissipator and of the non-Hermitian no-jump generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import HilbertSpace, Operator, StatePattern, _freeze

__all__ = [
    "SpectralDecomposition",
    "EigenOperator",
    "decompose",
    "eigenoperators",
]

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

    @cached_property
    def basis(self) -> np.ndarray | None:
        """The basis index of each eigenvector column when every column is a
        basis vector, exactly 1 at one index and 0 elsewhere (every block of
        a diagonal H is 1 x 1); None otherwise."""
        d = len(self.vectors)
        cols, rows = np.divmod(np.flatnonzero(self.vectors.T), d)
        if len(cols) != d or not np.array_equal(cols, np.arange(d)):
            return None
        return rows if np.all(self.vectors[rows, cols] == 1) else None


@dataclass(frozen=True)
class EigenOperator:
    """Single-frequency component of a coupling operator.

    ``source_index`` identifies which coupling channel the component came
    from when several operators couple to the same environment.
    """

    frequency: float
    op: Operator
    source_index: int = 0


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


def _frequency_keys(w: np.ndarray, tol: float) -> tuple[np.ndarray, list[float]]:
    """Each frequency of ``w`` joins the first earlier one within ``tol``
    that opened a group; returns the group of each entry and each group's
    frequency.  Equal values join one group, so the rule runs once per
    distinct value, in the order the values first appear."""
    values, first, inverse = np.unique(w, return_index=True, return_inverse=True)
    freqs: list[float] = []
    key = np.empty(len(values), dtype=int)
    for u in np.argsort(first, kind="stable").tolist():
        wu = float(values[u])
        key[u] = next((k for k, f in enumerate(freqs) if abs(f - wu) <= tol), len(freqs))
        if key[u] == len(freqs):
            freqs.append(wu)
    return key[inverse], freqs


def eigenoperators(
    A: Operator,
    decomp: SpectralDecomposition,
    source_index: int = 0,
    drop_tol: float = BLOCK_DROP_TOL,
) -> list[EigenOperator]:
    """Split a coupling operator into its energy-lowering/raising components.

    One basis change, A~ = V^dag A V.  Each cluster pair (i, j) whose A~
    block has an entry of modulus >= ``drop_tol`` sits at w = eps_j - eps_i
    and joins the first frequency (row-major) within the decomposition's
    tolerance.  A(w) = V (mask_w o A~) V^dag; components with Frobenius norm
    below ``drop_tol`` are dropped.  Ascending in w; they sum back to A.
    When every eigenvector is a basis vector (:attr:`SpectralDecomposition.basis`)
    V is a permutation: the products are re-indexings and A(w) is A with
    the entries outside its cluster pairs set to 0.  A non-finite entry
    is a ValueError.
    """
    if A.space != decomp.space:
        raise ValueError("coupling operator and decomposition live on different spaces")
    if not np.isfinite(A.matrix).all():
        raise ValueError("coupling operator has non-finite entries")
    V, basis = decomp.vectors, decomp.basis
    n = len(decomp.starts)
    cluster = np.repeat(np.arange(n), np.diff(decomp.starts, append=len(V)))
    if basis is None:
        a = V.conj().T @ A.matrix @ V
    else:
        # A~ is A re-indexed: the components are masked in the basis of A
        a = A.matrix
        of_index = np.empty_like(cluster)
        of_index[basis] = cluster
        cluster = of_index  # the cluster of each basis index, the rows of a

    # the kept cluster pairs, row-major: those with an entry of modulus >= drop_tol
    rows, cols = np.divmod(np.flatnonzero(np.abs(a) >= drop_tol), len(a))
    pairs = np.bincount(cluster[rows] * n + cluster[cols], minlength=n * n)
    i, j = np.divmod(np.flatnonzero(pairs), n)
    ev = np.asarray(decomp.eigenvalues)
    keys, freqs = _frequency_keys(ev[j] - ev[i], decomp.degeneracy_tol)
    group = np.full((n, n), -1)  # frequency index of each kept cluster pair
    group[i, j] = keys
    group = group[np.ix_(cluster, cluster)]  # now per entry of a

    out = []
    for key, w in sorted(enumerate(freqs), key=lambda kw: kw[1]):
        m = np.where(group == key, a, 0.0)
        if basis is None:
            m = V @ m @ V.conj().T
        if float(np.linalg.norm(m)) < drop_tol:
            continue
        out.append(
            EigenOperator(w, Operator(A.space, m, label=f"{A.label}({w:g})"), source_index)
        )
    return out
