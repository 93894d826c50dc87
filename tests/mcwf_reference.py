"""The per-trajectory MCWF loop that ``cobath.trajectories.mcwf_unravel`` replaced.

One ``numpy.random.default_rng([seed, j])`` per trajectory, a Python loop
over the rows that jump and the full ladder at every lifting round.  The
vectorized implementation must reproduce every result of this one bit for
bit; ``tests/test_trajectories.py`` compares the two.
"""

import math

import numpy as np

from cobath.core import KetState
from cobath.master_equation import expm, grid_resolution, jump_operators, time_grid
from cobath.trajectories import McwfResult, _norm2, _rowwise


def reference_mcwf_unravel(me, psi0, t_grid, n_traj, seed, snapshot_counts=(), chunk_size=1000):
    """``mcwf_unravel`` as it was: same arguments, same ``McwfResult``."""
    v0 = np.array(psi0.amplitudes if isinstance(psi0, KetState) else psi0, dtype=complex).ravel()
    if abs(np.linalg.norm(v0) - 1.0) > 1e-9:
        raise ValueError("initial ket must be normalized")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")

    t = time_grid(t_grid)
    jumps_T = [op.matrix.T for op in jump_operators(me)]
    b = me.B
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
