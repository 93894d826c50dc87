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

import numpy as np

from .core import HilbertSpace, Operator, _freeze, identity, tensor_product

__all__ = [
    "SpectralDecomposition",
    "EigenOperator",
    "decompose",
    "eigenoperators",
    "verify_rwa_conservation",
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
    """Diagonalize a Hermitian operator, merging eigenvalues closer than the tolerance."""
    herm_defect = float(np.max(np.abs(H.matrix - H.matrix.conj().T)))
    if herm_defect > 1e-9 * max(1.0, float(np.max(np.abs(H.matrix)))):
        raise ValueError(f"Hamiltonian not Hermitian: max |H - H^dag| = {herm_defect:.3e}")
    evals, vecs = np.linalg.eigh((H.matrix + H.matrix.conj().T) / 2.0)
    tol = _default_tol(evals) if degeneracy_tol is None else float(degeneracy_tol)
    # eigh sorts ascending, so each cluster is a contiguous run of columns
    starts = np.flatnonzero(np.diff(evals) > tol) + 1
    clustered = tuple(float(np.mean(run)) for run in np.split(evals, starts))
    return SpectralDecomposition(H.space, clustered, _freeze(vecs), (0, *starts.tolist()), tol)


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
    """
    if A.space != decomp.space:
        raise ValueError("coupling operator and decomposition live on different spaces")
    V = decomp.vectors
    a = V.conj().T @ A.matrix @ V
    starts = np.asarray(decomp.starts)
    peak = np.maximum.reduceat(np.maximum.reduceat(np.abs(a), starts, axis=0), starts, axis=1)
    cluster = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(V)))

    freqs: list[float] = []
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


def verify_rwa_conservation(
    H_S: Operator,
    H_B: Operator,
    pairs: list[tuple[Operator, Operator]],
) -> float:
    """Residual norm of the free-energy conservation check.

    Builds the interaction H_I = sum_k A_k (x) B_k from the given
    system/bath operator pairs and returns ||[H_S (x) I + I (x) H_B, H_I]||
    (Frobenius).  The residual vanishes when every pair matches a
    lowering component A(w) with a raising bath component B(-w) at the
    same frequency, and reports the mismatch scale otherwise.
    """
    if not pairs:
        raise ValueError("need at least one (system, bath) operator pair")
    for a, b in pairs:
        if a.space != H_S.space or b.space != H_B.space:
            raise ValueError("pair operators do not match the system/bath spaces")
    H_free = tensor_product(H_S, identity(H_B.space)) + tensor_product(identity(H_S.space), H_B)
    H_I = tensor_product(pairs[0][0], pairs[0][1])
    for a, b in pairs[1:]:
        H_I = H_I + tensor_product(a, b)
    comm = H_free @ H_I - H_I @ H_free
    return float(np.linalg.norm(comm.matrix))
