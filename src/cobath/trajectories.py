"""Deterministic trajectory decomposition and Monte Carlo unraveling.

At zero temperature the master-equation solution splits into a finite
family of sub-normalized blocks indexed by how many excitations remain:

    rho(t) = sum_{i=0}^{N} rho_i(t),

where the top block evolves purely under the non-Hermitian no-jump
generator B = H0 - (i/2) H' and each lower block is fed by quantum jumps
out of the block above it:

    d rho_i / dt = -i (B rho_i - rho_i B^dag) + J(rho_{i+1}),
    J(rho) = sum_{w>0} sum_{a,b} gamma_{a,b}(w) A_b(w) rho A_a(w)^dag.

This coupled linear system is the time-local equivalent of the nested
jump-time integrals of the underlying piecewise-deterministic process;
the j = 1 shell is cross-checked against direct quadrature in the tests.
Conditioning on "no jump up to t" retains the normalized top block, which
is what a perfect photodetector that has registered nothing prepares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import DensityMatrix, HilbertSpace, KetState, Operator
from .master_equation import (
    FREQ_MATCH_TOL,
    IntegrationError,
    MasterEquation,
    check_propagated,
    jump_operators,
    jump_superoperator,
    propagate_linear,
)

__all__ = [
    "EffectiveGenerator",
    "TrajectoryHierarchy",
    "McwfResult",
    "effective_generator",
    "propagate_deterministic",
    "jump_feed",
    "solve_hierarchy",
    "reconstruct",
    "mcwf_unravel",
]

SECTOR_TOL = 1e-10


@dataclass(frozen=True)
class EffectiveGenerator:
    """No-jump generator B = H0 - (i/2) H' with Hermitian PSD damping part H'."""

    B: Operator
    H0: Operator
    Hprime: Operator

    def __post_init__(self):
        recon = self.H0.matrix - 0.5j * self.Hprime.matrix
        if not np.array_equal(recon, self.B.matrix):
            raise ValueError("B does not equal H0 - (i/2) H' entrywise")
        herm = float(np.max(np.abs(self.Hprime.matrix - self.Hprime.matrix.conj().T)))
        if herm > 1e-12:
            raise ValueError(f"damping part not Hermitian: defect {herm:.3e}")
        evals = np.linalg.eigvalsh((self.Hprime.matrix + self.Hprime.matrix.conj().T) / 2.0)
        if evals.size and evals[0] < -1e-10:
            raise ValueError(f"damping part not PSD: eigenvalue {evals[0]:.3e}")


def effective_generator(me: MasterEquation) -> EffectiveGenerator:
    """Assemble B from the Hamiltonian and the anticommutator part of the dissipator.

    Requires a zero-temperature (filtered) tensor: with absorption channels
    present the no-jump/jump split used here does not apply.
    """
    if me.tensor.has_nonpositive_frequencies():
        raise ValueError("tensor contains non-positive frequencies; filter it first")
    hp = (me.K + me.K.conj().T) / 2.0
    h0 = me.hamiltonian_matrix()
    H0 = Operator(me.space, h0, label="H0")
    Hprime = Operator(me.space, hp, label="H'")
    B = Operator(me.space, H0.matrix - 0.5j * Hprime.matrix, label="B")
    return EffectiveGenerator(B, H0, Hprime)


def propagate_deterministic(gen: EffectiveGenerator, f: np.ndarray, t: float) -> np.ndarray:
    """No-jump propagation exp(-iBt) f exp(+iB^dag t).

    Maps PSD matrices to PSD matrices; the trace is non-increasing because
    the damping part of B is PSD.
    """
    u = expm(-1j * gen.B.matrix * t)
    return u @ np.asarray(f, dtype=complex) @ u.conj().T


def jump_feed(me: MasterEquation):
    """Return the jump superoperator J as a callable on raw state matrices.

    A stack of matrices (leading axes) is mapped matrix by matrix.
    """
    terms = [term for term in me.terms if term.frequency > FREQ_MATCH_TOL]

    def feed(rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for _, rate, A_b, A_a_dag in terms:
            out = out + rate * (A_b @ rho @ A_a_dag)
        return out

    return feed


@dataclass(frozen=True)
class TrajectoryHierarchy:
    """Sub-normalized blocks rho_i(t), i = 0..N, summing to the full state."""

    n_max_exc: int
    grid: np.ndarray
    blocks: tuple[np.ndarray, ...]  # blocks[i][k] = rho_i(t_k)

    def __post_init__(self):
        if len(self.blocks) != self.n_max_exc + 1:
            raise ValueError("need one block per excitation count 0..N")
        g = np.asarray(self.grid, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)
        frozen = []
        for b in self.blocks:
            b = np.asarray(b, dtype=complex)
            if b.shape[0] != len(g):
                raise ValueError("block time axis does not match grid")
            b.setflags(write=False)
            frozen.append(b)
        object.__setattr__(self, "blocks", tuple(frozen))

    def block_at(self, i: int, t: float) -> np.ndarray:
        k = self.index_of(t)
        return self.blocks[i][k]

    def index_of(self, t: float) -> int:
        k = int(np.argmin(np.abs(self.grid - t)))
        if abs(self.grid[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t!r} is not on the hierarchy grid")
        return k

    def total(self, k: int | slice = slice(None)) -> np.ndarray:
        """Sum of the blocks at grid index k (default: the whole grid)."""
        out = np.zeros_like(self.blocks[0][k])
        for b in self.blocks:
            out = out + b[k]
        return out


def _sector_projectors(number_op: Operator, n_max: int) -> list[np.ndarray]:
    evals, vecs = np.linalg.eigh(number_op.matrix)
    projs = []
    for n in range(n_max + 1):
        cols = vecs[:, np.abs(evals - n) < 0.5]
        projs.append(cols @ cols.conj().T)
    return projs


def solve_hierarchy(
    me: MasterEquation,
    rho0: DensityMatrix,
    t_grid: np.ndarray,
    number_op: Operator,
    max_step: float | None = None,
) -> TrajectoryHierarchy:
    """Solve the coupled block system from a sector-pure initial state.

    ``number_op`` counts excitations; the initial state must be supported
    on a single integer eigenvalue N of it (split mixed-sector states by
    linearity before calling).  Every coupling component at positive
    frequency must lower the count by exactly one, which makes the number
    of jumps and the number of lost excitations interchangeable labels.
    """
    if me.tensor.has_nonpositive_frequencies():
        raise ValueError("tensor contains non-positive frequencies; filter it first")
    if rho0.space != me.space or number_op.space != me.space:
        raise ValueError("space mismatch between state, generator, and number operator")
    for fam in me.couplings:
        for eo in fam:
            if eo.frequency <= FREQ_MATCH_TOL:
                continue
            a = eo.op.matrix
            defect = np.linalg.norm(number_op.matrix @ a - a @ number_op.matrix + a)
            if defect > 1e-9 * max(1.0, float(np.linalg.norm(a))):
                raise ValueError(
                    f"coupling {eo.op.label!r} does not lower the excitation count by one"
                )

    evals = np.linalg.eigvalsh(number_op.matrix)
    if np.max(np.abs(evals - np.round(evals))) > 1e-6:
        raise ValueError("number operator must have integer spectrum")
    n_top = int(round(float(evals[-1])))
    projs = _sector_projectors(number_op, n_top)
    weights = [float(np.real(np.trace(p @ rho0.matrix @ p))) for p in projs]
    occupied = [n for n, wgt in enumerate(weights) if wgt > SECTOR_TOL]
    if len(occupied) != 1:
        raise ValueError(
            f"initial state spans excitation sectors {occupied}; split it by linearity"
        )
    N = occupied[0]
    block0 = projs[N] @ rho0.matrix @ projs[N]
    if float(np.max(np.abs(block0 - rho0.matrix))) > SECTOR_TOL:
        raise ValueError("initial state has coherence between excitation sectors")

    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")

    gen = effective_generator(me)
    b_mat = gen.B.matrix
    b_dag = b_mat.conj().T
    dim = me.space.total_dim
    feed = jump_feed(me)

    def rhs(stack: np.ndarray) -> np.ndarray:
        out = -1j * (b_mat @ stack - stack @ b_dag)
        out[:-1] += feed(stack[1:])
        return out

    def generator() -> np.ndarray:
        # block-bidiagonal: no-jump evolution on the diagonal, the jump
        # feed from block i + 1 on the superdiagonal
        eye = np.eye(dim, dtype=complex)
        nojump = -1j * (np.kron(b_mat, eye) - np.kron(eye, b_mat.conj()))
        jumps = jump_superoperator(me.terms, dim)
        return np.kron(np.eye(N + 1), nojump) + np.kron(np.eye(N + 1, k=1), jumps)

    stack = np.zeros((N + 1, dim, dim), dtype=complex)
    stack[N] = block0
    series = np.array([stack, *propagate_linear(me, stack, t, max_step, generator, rhs)])
    check_propagated(series, t, me.space, rho0.trace, None)
    return TrajectoryHierarchy(N, t, tuple(series[:, i] for i in range(N + 1)))


def reconstruct(h: TrajectoryHierarchy, space=None) -> list[DensityMatrix]:
    """Sum the blocks at every grid point back into full states.

    The states are the Hermitian parts of the sums, checked as one stack
    (tolerance 1e-7, trace in [0, 1]).
    """
    dim = h.blocks[0].shape[-1]
    if space is None:
        space = HilbertSpace((dim,))
    return DensityMatrix.stack(space, h.total(), 1e-7, None)


@dataclass(frozen=True)
class McwfResult:
    """Ensemble-averaged states plus per-trajectory jump records.

    ``averages[c]`` is the running ensemble average over the first
    ``counts[c]`` trajectories (the last entry is the full ensemble), and
    ``jump_records[j]`` lists the (time, channel) events of trajectory j.
    """

    grid: np.ndarray
    counts: tuple[int, ...]
    averages: tuple[np.ndarray, ...]  # averages[c][k] = mean state at t_k
    jump_records: tuple[tuple[tuple[float, int], ...], ...]

    def states(self, space) -> list[DensityMatrix]:
        """Hermitian parts of the full-ensemble averages, checked as one stack."""
        return DensityMatrix.stack(space, self.averages[-1], 1e-7)


def _mcwf_dt(jump_ops: list[np.ndarray], max_jump_prob: float) -> float:
    # the no-jump propagator is an exact exponential, so only the jump
    # channel constrains the step: worst-case per-step jump probability
    # ~ dt * sum_k ||L_k||^2 (spectral norms)
    gamma_tot = sum(float(np.linalg.norm(L, ord=2)) ** 2 for L in jump_ops)
    return max_jump_prob / gamma_tot if gamma_tot > 0 else math.inf


def mcwf_unravel(
    me: MasterEquation,
    psi0,
    t_grid: np.ndarray,
    n_traj: int,
    seed: int,
    max_jump_prob: float = 0.01,
    snapshot_counts: tuple[int, ...] = (),
    chunk_size: int = 1000,
) -> McwfResult:
    """First-order jump/no-jump unraveling of the diagonalized dissipator.

    Between jumps every trajectory evolves under exp(-iB dt) with
    norm-loss-based jump probability; on a jump, channel k is selected
    with probability proportional to ||L_k psi||^2.  Trajectory j draws
    from an RNG stream seeded by (seed, j) and the ensemble average is a
    deterministic ordered sum, so results do not depend on scheduling.
    The ensemble average converges to the direct integration at the usual
    1/sqrt(n_traj) statistical rate.
    """
    if isinstance(psi0, KetState):
        if abs(psi0.norm() - 1.0) > 1e-9:
            raise ValueError("initial ket must be normalized")
        v0 = np.array(psi0.amplitudes)
    else:
        v0 = np.asarray(psi0, dtype=complex).reshape(-1)
        if abs(np.linalg.norm(v0) - 1.0) > 1e-9:
            raise ValueError("initial ket must be normalized")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")

    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")

    L_ops = [op.matrix for op in jump_operators(me)]
    gen = effective_generator(me)
    dt_max = _mcwf_dt(L_ops, max_jump_prob)

    # each grid interval is subdivided to respect dt_max; the no-jump
    # propagator is cached per distinct substep size (one entry on a
    # uniform grid)
    spans = np.diff(t)
    n_sub_per = np.maximum(1, np.ceil(spans / dt_max).astype(int)) if len(spans) else np.array([], int)
    prop_cache: dict[float, np.ndarray] = {}

    def propagator(dt: float) -> np.ndarray:
        key = round(dt, 15)
        if key not in prop_cache:
            prop_cache[key] = expm(-1j * gen.B.matrix * dt)
        return prop_cache[key]

    counts = tuple(sorted(set(int(c) for c in snapshot_counts if 0 < int(c) < n_traj))) + (n_traj,)
    # chunk boundaries adapt to the requested snapshot counts so running
    # means can be captured exactly there
    boundaries = sorted(set(range(0, n_traj, chunk_size)) | set(counts) | {n_traj})
    dim = v0.size
    n_t = len(t)
    sums = np.zeros((n_t, dim, dim), dtype=complex)
    snapshots: list[np.ndarray] = []
    records: list[tuple[tuple[float, int], ...]] = []

    for start, stop in zip(boundaries, boundaries[1:]):
        m = stop - start
        # persistent per-trajectory RNG streams: two uniforms per substep
        # (jump decision, channel selection), drawn interval by interval
        streams = [np.random.default_rng([seed, start + j]) for j in range(m)]

        psi = np.tile(v0, (m, 1))
        chunk_records: list[list[tuple[float, int]]] = [[] for _ in range(m)]
        sums[0] += np.einsum("ti,tj->tij", psi, psi.conj()).sum(axis=0)
        for k in range(1, n_t):
            n_sub = int(n_sub_per[k - 1])
            dt = float(spans[k - 1]) / n_sub
            E = propagator(dt)
            u = np.stack([s.random((2, n_sub)) for s in streams])  # (m, 2, n_sub)
            for s in range(n_sub):
                t_now = t[k - 1] + (s + 1) * dt
                evolved = psi @ E.T
                surv = np.einsum("ti,ti->t", evolved.conj(), evolved).real
                p_jump = 1.0 - surv
                if np.any(p_jump > 0.1):
                    raise IntegrationError(
                        f"per-step jump probability {p_jump.max():.3f} exceeds 0.1; "
                        "reduce the step size",
                        t_now,
                    )
                jumping = u[:, 0, s] < p_jump
                if L_ops and np.any(jumping):
                    idx = np.nonzero(jumping)[0]
                    targets = np.stack([psi[idx] @ L.T for L in L_ops], axis=1)
                    weights = np.einsum("tki,tki->tk", targets.conj(), targets).real
                    cdf = np.cumsum(weights, axis=1)
                    tot = cdf[:, -1]
                    pick = (u[idx, 1, s][:, None] * tot[:, None] > cdf).sum(axis=1)
                    pick = np.minimum(pick, len(L_ops) - 1)
                    for row, (jt, ch) in enumerate(zip(idx, pick)):
                        if tot[row] <= 0.0:
                            continue  # roundoff-level trigger with no jump weight
                        chunk_records[jt].append((t_now, int(ch)))
                        evolved[jt] = targets[row, ch]
                norms = np.linalg.norm(evolved, axis=1)
                psi = evolved / norms[:, None]
            sums[k] += np.einsum("ti,tj->tij", psi, psi.conj()).sum(axis=0)

        records.extend(tuple(r) for r in chunk_records)
        if stop in counts:
            snapshots.append(sums / stop)

    return McwfResult(t, counts, tuple(snapshots), tuple(records))
