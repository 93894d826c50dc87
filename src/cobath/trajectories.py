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

from .core import DensityMatrix, HilbertSpace, KetState, Operator
from .master_equation import (
    FREQ_MATCH_TOL,
    MasterEquation,
    check_hygiene,
    expm,
    grid_resolution,
    jump_operators,
    jump_superoperator,
    kron_on,
    propagate_linear,
    time_grid,
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


def _block_system(me: MasterEquation):
    """The block-bidiagonal system as ``propagate_linear`` takes it.

    No-jump evolution -i (B rho_i - rho_i B^dag) inside each block, the
    jump feed from block i + 1 into block i.  Returns ``rhs`` on a block
    stack, ``generator(support)`` (the matrix on those flat stack entries)
    and the ``structure`` that
    :func:`~cobath.master_equation.invariant_support` reads.
    """
    b_mat = effective_generator(me).B.matrix
    b_dag = b_mat.conj().T
    dim = me.space.total_dim
    feed = jump_feed(me)

    def rhs(stack: np.ndarray) -> np.ndarray:
        out = -1j * (b_mat @ stack - stack @ b_dag)
        out[:-1] += feed(stack[1:])
        return out

    def generator(support: np.ndarray) -> np.ndarray:
        block, entry = np.divmod(support, dim * dim)
        kron = kron_on(dim, entry)
        eye = np.eye(dim, dtype=complex)
        nojump = -1j * (kron(b_mat, eye) - kron(eye, b_mat.conj()))
        jumps = jump_superoperator(me.terms, kron)
        return np.where(block[:, None] == block, nojump, 0) + np.where(
            block[:, None] + 1 == block, jumps, 0
        )

    eye = np.eye(dim)
    jumps = [(-1, term.A_b, term.A_a_dag) for term in me.terms]
    return rhs, generator, [(0, b_mat, eye), (0, eye, b_dag), *jumps]


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
    ``number_op`` serves only these checks and the block count N + 1.

    Without ``max_step`` the stack of blocks is propagated on its
    invariant support (:func:`~cobath.master_equation.invariant_support`):
    the entries the top block reaches by no-jump mixing inside a block and
    by the jump feed from block i + 1 into block i, read from the exact
    zeros of B and of the coupling components.  For a sector-pure JC state
    that is 1 + 4 N entries, not (N + 1) dim^2; the restricted
    block-bidiagonal generator is built directly and propagated exactly
    up to ``EXACT_SIZE_LIMIT`` entries.  Above it, or with an explicit
    ``max_step``, fixed-step RK4 runs on the full stack.
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

    t = time_grid(t_grid)

    dim = me.space.total_dim
    rhs, generator, structure = _block_system(me)
    stack = np.zeros((N + 1, dim, dim), dtype=complex)
    stack[N] = block0
    steps = propagate_linear(me, stack, t, max_step, generator, rhs, structure)
    series = np.array([stack, *steps])
    check_hygiene(series, t, rho0.trace, None)
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
    ``counts[c]`` trajectories (the last entry is the full ensemble),
    ``stderr[k]`` is the entrywise standard error of the full-ensemble mean
    at t_k, sqrt((E|x|^2 - |E x|^2) / (n - 1)) (NaN for one trajectory),
    and ``jump_records[j]`` lists the (time, channel) events of trajectory j.
    """

    grid: np.ndarray
    counts: tuple[int, ...]
    averages: tuple[np.ndarray, ...]  # averages[c][k] = mean state at t_k
    stderr: np.ndarray
    jump_records: tuple[tuple[tuple[float, int], ...], ...]

    def states(self, space) -> list[DensityMatrix]:
        """Hermitian parts of the full-ensemble averages, checked as one stack."""
        return DensityMatrix.stack(space, self.averages[-1], 1e-7)


def _rowwise(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    # one vector-matrix product per row: a row's bits must not depend on
    # which rows share the batch, as they would under one gemm
    return np.matmul(x[:, None, :], m)[:, 0]


def _norm2(x: np.ndarray) -> np.ndarray:
    xf = x.view(float)  # |x|^2 as one real dot product per row
    return np.matmul(xf[:, None, :], xf[:, :, None])[:, 0, 0]


def mcwf_unravel(
    me: MasterEquation,
    psi0,
    t_grid: np.ndarray,
    n_traj: int,
    seed: int,
    snapshot_counts: tuple[int, ...] = (),
    chunk_size: int = 1000,
) -> McwfResult:
    """Waiting-time (integrated-norm) unraveling of the diagonalized dissipator.

    Between jumps a trajectory carries the unnormalized no-jump state phi,
    whose norm^2 is its survival probability since the last jump; it jumps
    when norm^2 falls below a threshold r uniform in [0, 1) (Dalibard,
    Castin & Molmer 1992; Plenio & Knight 1998).  A grid interval D is one
    cached exp(-iBD); a trajectory that crosses r in it finds the jump time
    by binary lifting on the cached ladder exp(-iBD 2^-j), j = 1..J, with
    D 2^-J at most the grid-time resolution (``grid_resolution``): it jumps
    at the last ladder point with norm^2 >= r, less than D 2^-J before the
    exact crossing.  Channel k is picked with weight ||L_k phi||^2, phi
    becomes L_k phi / ||L_k phi||, a new r is drawn and the lifting goes on
    to the end of the interval.  Trajectory j draws from the stream seeded
    by (seed, j): first r, then per jump the channel draw and the next r.
    Products are row by row and the ensemble average is an ordered sum, so
    results do not depend on ``chunk_size`` or scheduling.
    """
    v0 = np.array(psi0.amplitudes if isinstance(psi0, KetState) else psi0, dtype=complex).ravel()
    if abs(np.linalg.norm(v0) - 1.0) > 1e-9:
        raise ValueError("initial ket must be normalized")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")

    t = time_grid(t_grid)
    jumps_T = [op.matrix.T for op in jump_operators(me)]
    b = effective_generator(me).B.matrix
    resolution = grid_resolution(t)
    ladders: dict[int, list[np.ndarray]] = {}  # exp(-iB dt 2^-j)^T, j = 0..J

    counts = tuple(sorted(set(int(c) for c in snapshot_counts if 0 < int(c) < n_traj))) + (n_traj,)
    # chunk boundaries adapt to the requested snapshot counts so running
    # means can be captured exactly there
    boundaries = sorted(set(range(0, n_traj, chunk_size)) | set(counts) | {n_traj})
    sums = np.zeros((len(t), v0.size, v0.size), dtype=complex)
    squares = np.zeros(sums.shape)
    snapshots: list[np.ndarray] = []
    records: list[tuple[tuple[float, int], ...]] = []

    def accumulate(k: int, phi: np.ndarray):
        psi = phi / np.sqrt(_norm2(phi))[:, None]
        p = psi.real**2 + psi.imag**2
        sums[k] += psi.T @ psi.conj()
        squares[k] += p.T @ p

    for start, stop in zip(boundaries, boundaries[1:]):
        m = stop - start
        streams = [np.random.default_rng([seed, start + j]) for j in range(m)]
        r = np.array([s.random() for s in streams])
        phi = np.tile(v0, (m, 1))
        chunk_records: list[list[tuple[float, int]]] = [[] for _ in range(m)]
        accumulate(0, phi)
        for k in range(1, len(t)):
            dt = t[k] - t[k - 1]
            key = round(dt / resolution)  # spacings within the resolution share a ladder
            if key not in ladders:
                levels = max(0, math.ceil(math.log2(dt / resolution)))
                ladders[key] = [expm(-1j * b * (dt / 2**j)).T for j in range(levels + 1)]
            steps = ladders[key]
            full = 1 << (len(steps) - 1)
            cand = _rowwise(phi, steps[0])
            keep = _norm2(cand) >= r
            phi[keep] = cand[keep]
            # rows that cross r lift as a compact set: state x at pos (units of dt 2^-J)
            active = np.flatnonzero(~keep)
            x, pos = phi[active], np.zeros(active.size, dtype=np.int64)
            while active.size:
                for j, E in enumerate(steps):
                    cand = _rowwise(x, E)
                    keep = (pos + (full >> j) <= full) & (_norm2(cand) >= r[active])
                    x[keep] = cand[keep]
                    pos[keep] += full >> j
                done = pos == full
                phi[active[done]] = x[done]
                active, x, pos = active[~done], x[~done], pos[~done]
                targets = [_rowwise(x, L) for L in jumps_T]
                cdf = np.cumsum([_norm2(y) for y in targets] or [np.zeros(active.size)], axis=0)
                u = [streams[j].random() for j in active]
                r[active] = [streams[j].random() for j in active]
                for row, j in enumerate(active):
                    y = x[row : row + 1]  # no jump weight: a roundoff-level crossing
                    if cdf[-1, row] > 0.0:
                        ch = min(int(np.sum(u[row] * cdf[-1, row] > cdf[:, row])), len(targets) - 1)
                        chunk_records[j].append((float(t[k - 1] + pos[row] * (dt / full)), ch))
                        y = targets[ch][row : row + 1]
                    x[row] = y[0] / math.sqrt(_norm2(y)[0])
            accumulate(k, phi)

        records.extend(tuple(rec) for rec in chunk_records)
        if stop in counts:
            snapshots.append(sums / stop)

    mean = snapshots[-1]
    var = np.maximum(squares / n_traj - (mean.real**2 + mean.imag**2), 0.0)
    stderr = np.sqrt(var / (n_traj - 1)) if n_traj > 1 else np.full(var.shape, np.nan)
    return McwfResult(t, counts, tuple(snapshots), stderr, tuple(records))
