"""The excitation-block split of the master equation and Monte Carlo unraveling.

At zero temperature every jump lowers the excitation count N by one, so
from a start in sector n the master-equation state splits into the
sub-normalized blocks of its sectors,

    rho(t) = sum_{i=0}^{n} rho_i(t),    rho_i = P_i rho P_i,

the n-jump decomposition of photon counting: block i carries the records
with n - i jumps.  The top block evolves purely under the non-Hermitian
no-jump generator B = H_S - (i/2) (K + K^dag)/2 (``MasterEquation.B``),
and each lower block is fed by quantum jumps out of the block above it:

    d rho_i / dt = -i (B rho_i - rho_i B^dag) + J(rho_{i+1}),
    J(rho) = sum_{w>0} sum_{a,b} gamma_{a,b}(w) A_b(w) rho A_a(w)^dag.

Summed over i this is the master equation, so the blocks are the sectors
of its state, not a second system: :func:`hierarchy_sector` checks that
the split holds, and the state itself comes from ``integrate``.
Conditioning on "no jump up to t" retains the normalized top block, which
is what a perfect photodetector that has registered nothing prepares
(``jc.conditional_state``).  :func:`mcwf_unravel` samples the jump
records themselves.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, KetState, Operator, StateSeries
from .master_equation import (
    FREQ_MATCH_TOL,
    MasterEquation,
    expm,
    grid_resolution,
    jump_operators,
    spacing_classes,
    time_grid,
)

__all__ = [
    "McwfResult",
    "hierarchy_sector",
    "mcwf_unravel",
]

SECTOR_TOL = 1e-10


def hierarchy_sector(me: MasterEquation, rho0: DensityMatrix, number_op: Operator) -> int:
    """The excitation sector n of ``rho0``, once the hierarchy's preconditions hold.

    The checks, in order (``MasterEquation`` has already rejected an
    unfiltered tensor): one space, an integer spectrum of ``number_op``
    (the count N) with no negative count, [N, H_S] = 0, [N, A(w)] = -A(w)
    at every w > 0, and N rho0 = n rho0 for one n >= 0 (for a Hermitian
    rho0 that excludes weight in other sectors and coherence between
    sectors alike; split such a state by linearity).  Under them every jump lowers the count by one and none
    leaves sector 0, so the master-equation state never mixes sectors and
    block i of the hierarchy is its sector-i part P_i rho P_i.
    """
    if rho0.space != me.space or number_op.space != me.space:
        raise ValueError("space mismatch between state, generator, and number operator")
    num = number_op.matrix
    evals = np.linalg.eigvalsh(num)
    if np.max(np.abs(evals - np.round(evals))) > 1e-6:
        raise ValueError("number operator must have integer spectrum")
    if round(evals[0]) < 0:  # a jump out of sector 0 would leave the blocks 0..n
        raise ValueError("number operator must have no negative eigenvalue")
    # [N, X] = c X: the Hamiltonian keeps the count, each emitting coupling lowers it by one
    checks = [(me.H_S.matrix, 0, "Hamiltonian does not conserve the excitation count")]
    for fam in me.couplings:
        for eo in fam:
            if eo.frequency > FREQ_MATCH_TOL:
                msg = f"coupling {eo.op.label!r} does not lower the excitation count by one"
                checks.append((eo.op.matrix, -1, msg))
    for x, c, msg in checks:
        if np.linalg.norm(num @ x - x @ num - c * x) > 1e-9 * max(1.0, float(np.linalg.norm(x))):
            raise ValueError(msg)

    weight = rho0.trace
    num_rho = num @ rho0.matrix
    n = round(float(np.trace(num_rho).real) / weight) if weight > SECTOR_TOL else -1
    if n < 0 or float(np.max(np.abs(num_rho - n * rho0.matrix))) > SECTOR_TOL:
        raise ValueError(
            "initial state is not in one excitation sector (N rho0 != n rho0); "
            "split it by linearity"
        )
    return n


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

    def states(self, space) -> StateSeries:
        """Hermitian parts of the full-ensemble averages as one checked series (tolerance 1e-7)."""
        return DensityMatrix.stack(space, self.averages[-1], 1e-7)


def _rowwise(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    # one vector-matrix product per row: a row's bits must not depend on
    # which rows share the batch, as they would under one gemm
    return np.matmul(x[:, None, :], m)[:, 0]


def _norm2(x: np.ndarray) -> np.ndarray:
    xf = x.view(float)  # |x|^2 as one real dot product per row
    return np.matmul(xf[:, None, :], xf[:, :, None])[:, 0, 0]


def _unit_rows(x: np.ndarray, norm2: np.ndarray) -> np.ndarray:
    # x / sqrt(norm2) row by row, as the float view times 1 / sqrt(norm2):
    # numpy divides by s + 0j as (a + b 0)(1 / s), so the two differ only in
    # the sign of zero parts, which no sum that starts at +0 keeps
    return (x.view(float) * (1.0 / np.sqrt(norm2))[:, None]).view(complex)


def _first_crossings(norms: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per threshold in ``r``, the first interval k whose end value
    ``norms[k + 1]`` is below it, or len(norms) - 1 if none is.

    NaN is below no threshold.
    """
    ends = norms[1:]
    # the running minimum, read backwards so that it ascends
    floor = np.minimum.accumulate(np.where(np.isnan(ends), np.inf, ends))[::-1]
    return len(floor) - np.searchsorted(floor, r)


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants and the PCG64 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MUL_HI, _MUL_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MUL_LO0, _MUL_LO1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32)


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    # SeedSequence's hashmix; the hash constant moves on at every call
    value = value ^ np.uint32(const)
    const = const * mult & _M32
    value = value * np.uint32(const)
    return value ^ value >> 16, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ out >> 16


class _Streams:
    """The PCG64 streams of ``numpy.random.default_rng([seed, j])``, one row per j.

    Seeding is numpy's ``SeedSequence``: the entropy is the little-endian
    uint32 words of ``seed`` followed by those of ``j`` (one word for
    j < 2^32), hashed into a pool of four words, of which
    ``generate_state(4, uint64)`` gives the PCG64 initial state and
    increment.  The 128-bit LCG runs as uint64 hi/lo pairs with XSL-RR
    output.  ``random(rows)`` is ``Generator.random()`` on each row named,
    so every row draws the doubles its own generator would, whichever rows
    draw with it.
    """

    def __init__(self, seed: int, js: np.ndarray):
        js = np.asarray(js, dtype=np.uint64)
        zero = np.zeros(js.shape, dtype=np.uint32)
        entropy = [zero + np.uint32(seed >> s & _M32) for s in range(0, max(seed.bit_length(), 1), 32)]
        entropy += [(js & _M32).astype(np.uint32), (js >> 32).astype(np.uint32)]
        const, pool = _INIT_A, []
        for i in range(4):  # a word past the entropy hashes as 0, like j's absent high word
            value, const = _hash(entropy[i] if i < len(entropy) else zero, const, _MULT_A)
            pool.append(value)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    value, const = _hash(pool[src], const, _MULT_A)
                    pool[dst] = _mix(pool[dst], value)
        for src in range(4, len(entropy)):
            # the last word, j's high word, is entropy only from j = 2^32 on
            present = js >= 1 << 32 if src == len(entropy) - 1 else True
            for dst in range(4):
                value, const = _hash(entropy[src], const, _MULT_A)
                pool[dst] = np.where(present, _mix(pool[dst], value), pool[dst])
        const, words = _INIT_B, []
        for i in range(8):
            value, const = _hash(pool[i % 4], const, _MULT_B)
            words.append(value.astype(np.uint64))
        s_hi, s_lo, i_hi, i_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
        self.inc_hi, self.inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
        # pcg64_srandom: state 0, step, add the seed, step
        self.lo = self.inc_lo + s_lo
        self.hi = self.inc_hi + s_hi + (self.lo < s_lo)
        self._step(slice(None))

    def _step(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """state <- state * _PCG_MULT + inc (mod 2^128) on ``rows``; returns the new (hi, lo)."""
        hi, lo = self.hi[rows], self.lo[rows]
        a0, a1 = lo & _M32, lo >> 32
        p00, p01, p10 = a0 * _MUL_LO0, a0 * _MUL_LO1, a1 * _MUL_LO0
        carry = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        hi = a1 * _MUL_LO1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32) + lo * _MUL_HI + hi * _MUL_LO
        lo = lo * _MUL_LO
        new_lo = lo + self.inc_lo[rows]
        hi = hi + self.inc_hi[rows] + (new_lo < lo)
        self.hi[rows], self.lo[rows] = hi, new_lo
        return hi, new_lo

    def random(self, rows) -> np.ndarray:
        """One uniform double in [0, 1) per row of ``rows``: (XSL-RR output >> 11) 2^-53."""
        hi, lo = self._step(rows)
        x, rot = hi ^ lo, hi >> 58
        x = x >> rot | x << (64 - rot & 63)
        return (x >> 11) * 2.0**-53


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
    to the end of the interval.  Trajectory j draws the PCG64 stream that
    ``numpy.random.default_rng([seed, j])`` would give, bit for bit: first
    r, then per jump the channel draw and the next r.

    Until its first crossing every trajectory carries the same no-jump
    row, which is advanced once per run, one interval product on a single
    row per interval.  A trajectory first crosses in the first interval
    whose shared norm^2 falls below its r (found on the running minimum of
    those norms; a NaN norm never crosses), and each chunk of trajectories
    lifts all its first crossings from the shared row in one pass per
    ladder.  The chunk then moves one grid interval at a time on the rows
    past their first crossing, kept as one compact array in join order
    with each row's slot in the chunk: they take one interval product,
    those whose norm^2 falls below r lift to the interval's end together
    and are written back by slot, and the rows whose first crossing ends
    there are appended.  After a jump, a lifting round takes at each
    ladder level only the rows that still fit in the interval.  So a run
    costs one lifting pass per chunk and ladder for first crossings, plus
    one per grid interval in which a row crosses again.  At every grid
    point the chunk's unit rows are the shared row's, normalized once per
    run, with the compact rows' scattered over them by slot, and are
    accumulated in row order.  Products are row by row, so a row's bits
    do not depend on which rows share its batch, and every row meets the
    same products, draws and normalizations in the same order whatever
    the schedule, so no result depends on it.
    Nor do the jump records depend on ``chunk_size`` (at least 1); the
    averages are ordered sums over chunks, which moves them with
    ``chunk_size`` at roundoff level only.
    """
    v0 = np.array(psi0.amplitudes if isinstance(psi0, KetState) else psi0, dtype=complex).ravel()
    if isinstance(psi0, KetState) and psi0.space != me.space or v0.size != me.space.total_dim:
        raise ValueError("initial ket lives on the wrong space")
    if abs(np.linalg.norm(v0) - 1.0) > 1e-9:
        raise ValueError("initial ket must be normalized")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")

    t = time_grid(t_grid)
    dts = np.diff(t)
    jumps_T = [op.matrix.T for op in jump_operators(me)]
    b = me.B
    resolution = grid_resolution(t)
    # one ladder exp(-iB dt 2^-j)^T, j = 0..J, per class of spacings; keys[k]
    # is the ladder of interval k
    first, keys = spacing_classes(t)
    ladders = []
    for dt in dts[first]:
        levels = max(0, math.ceil(math.log2(dt / resolution)))
        ladders.append([expm(-1j * b * (dt / 2**j)).T for j in range(levels + 1)])
    level0 = [ladders[key][0] for key in keys.tolist()]

    # the no-jump row every trajectory carries until its first crossing, one
    # row for all: _rowwise gives a row the same bits in any batch
    shared = np.empty((len(t), v0.size), dtype=complex)
    shared[0] = v0
    for k, step in enumerate(level0):
        shared[k + 1] = _rowwise(shared[k : k + 1], step)[0]
    shared_norms = _norm2(shared)

    counts = tuple(sorted(set(int(c) for c in snapshot_counts if 0 < int(c) < n_traj))) + (n_traj,)
    # chunk boundaries adapt to the requested snapshot counts so running
    # means can be captured exactly there
    boundaries = sorted(set(range(0, n_traj, chunk_size)) | set(counts) | {n_traj})
    sums = np.zeros((len(t), v0.size, v0.size), dtype=complex)
    squares = np.zeros(sums.shape)
    snapshots: list[np.ndarray] = []
    records: list[tuple[tuple[float, int], ...]] = []

    # _unit_rows is elementwise: the shared row's unit rows are every row's bits
    shared_units = _unit_rows(shared, shared_norms)

    def accumulate(k: int, units: np.ndarray, slot: np.ndarray, x: np.ndarray, norm2: np.ndarray):
        # every row of the chunk in row order: the shared row, but rows ``slot`` are ``x``
        units[:] = shared_units[k]
        units[slot] = _unit_rows(x, norm2)
        p = units.real**2 + units.imag**2
        sums[k] += units.T @ units.conj()
        squares[k] += p.T @ p

    for start, stop in zip(boundaries, boundaries[1:]):
        m = stop - start
        streams = _Streams(seed, np.arange(start, stop))
        r = streams.random(slice(None))
        chunk_records: list[list[tuple[float, int]]] = [[] for _ in range(m)]
        units = np.empty((m, v0.size), dtype=complex)

        def lift(rows: np.ndarray, ks: np.ndarray, x: np.ndarray, steps: list[np.ndarray]):
            """Carry ``rows`` from states ``x`` at the start of intervals ``ks``
            (all on ladder ``steps``) to their ends, jumping on the way.

            Returns the rows, their intervals and their end states, in the
            order the rows finish.
            """
            full = 1 << (len(steps) - 1)
            pos = np.zeros(rows.size, dtype=np.int64)  # units of dt 2^-J
            finished = []
            # round one skips level 0, the product that just failed; its other
            # levels add up to less than dt, so every row walks them all.  After
            # a jump a level takes only the rows it still fits: popcount(full -
            # pos) levels for a row that does not cross again
            first = 1
            while True:
                r_rows = r[rows]
                for j in range(first, len(steps)):
                    fit = slice(None) if first else (pos <= full - (full >> j)).nonzero()[0]
                    cand = _rowwise(x[fit], steps[j])
                    keep = (_norm2(cand) >= r_rows[fit]).nonzero()[0]
                    take = keep if first else fit[keep]
                    x[take] = cand[keep]
                    pos[take] += full >> j
                if not first:
                    done = pos == full
                    finished.append((rows[done], ks[done], x[done]))
                    rows, ks, x, pos = rows[~done], ks[~done], x[~done], pos[~done]
                    if not rows.size:
                        return [np.concatenate(a) for a in zip(*finished)]
                first = 0
                targets = [_rowwise(x, L) for L in jumps_T]
                cdf = np.cumsum([_norm2(y) for y in targets] or [np.zeros(rows.size)], axis=0)
                u = streams.random(rows)
                r[rows] = streams.random(rows)
                ch = np.minimum(np.sum(u * cdf[-1] > cdf, axis=0), len(targets) - 1)
                jumped = cdf[-1] > 0.0  # no jump weight: a roundoff-level crossing
                # x itself is the last candidate, taken by the rows that did not jump
                y = np.stack([*targets, x])[np.where(jumped, ch, len(targets)), np.arange(rows.size)]
                x = y / np.sqrt(_norm2(y))[:, None]
                when = t[ks] + pos * (dts[ks] / full)
                for j, tj, c in zip(rows[jumped].tolist(), when[jumped].tolist(), ch[jumped].tolist()):
                    chunk_records[j].append((tj, c))

        def lift_all(rows: np.ndarray, ks: np.ndarray, x: np.ndarray):
            """:func:`lift` in one pass per ladder, whatever the intervals ``ks``."""
            if not rows.size:
                return rows, ks, x
            key_of, lifted = keys[ks], []
            for key in dict.fromkeys(key_of.tolist()):
                g = key_of == key
                lifted.append(lift(rows[g], ks[g], x[g], ladders[key]))
            return tuple(np.concatenate(a) for a in zip(*lifted))

        first_cross = _first_crossings(shared_norms, r)
        rows = np.flatnonzero(first_cross < len(t) - 1)
        ks = first_cross[rows]
        arrived_rows, arrived_ks, arrived_x = lift_all(rows, ks, shared[ks])

        # the rows past their first crossing, in join order: states, norm^2 and
        # slots in the chunk, with at[slot] a row's place among them
        slot, x, norm2 = arrived_rows[:0], arrived_x[:0], np.empty(0)
        at = np.empty(m, dtype=np.int64)
        accumulate(0, units, slot, x, norm2)
        for k, step in enumerate(level0):
            cand = _rowwise(x, step)
            cand_norm2 = _norm2(cand)
            cross = (cand_norm2 < r[slot]).nonzero()[0]
            if cross.size:
                lifted_rows, _, lifted_x = lift_all(slot[cross], np.full(cross.size, k), x[cross])
                cand[at[lifted_rows]] = lifted_x
                cand_norm2[at[lifted_rows]] = _norm2(lifted_x)
            x, norm2 = cand, cand_norm2
            here = arrived_ks == k  # first crossings that end at grid point k + 1
            if here.any():
                joining = arrived_rows[here]
                at[joining] = slot.size + np.arange(joining.size)
                slot = np.concatenate([slot, joining])
                x = np.concatenate([x, arrived_x[here]])
                norm2 = np.concatenate([norm2, _norm2(arrived_x[here])])
            accumulate(k + 1, units, slot, x, norm2)

        records.extend(tuple(rec) for rec in chunk_records)
        if stop in counts:
            snapshots.append(sums / stop)

    mean = snapshots[-1]
    var = np.maximum(squares / n_traj - (mean.real**2 + mean.imag**2), 0.0)
    stderr = np.sqrt(var / (n_traj - 1)) if n_traj > 1 else np.full(var.shape, np.nan)
    return McwfResult(t, counts, tuple(snapshots), stderr, tuple(records))
