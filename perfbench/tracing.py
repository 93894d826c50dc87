"""Spans around cobath's layers, recorded from outside the program.

``install`` replaces each traced public function by a wrapper in every
cobath module namespace that holds it, which is where its callers look it
up, and wraps ``DensityMatrix.__post_init__`` for state validation.  Spans
are tuples (name, parent span, case, start, end) kept in memory.  Self
time is a span's duration minus the durations of its direct children.

The work counts are computed after a pass from the recorded call
arguments, with the rules of the algorithms at the commit that defined
this benchmark (fixed-step RK4, superoperator right-hand side up to
dimension 32, first-order Monte Carlo steps).  They repeat exactly for a
given seed and are labelled as computed.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import numpy as np

# (span name, defining module, attribute, keep the call for work counts)
TARGETS = (
    ("config.load_config", "config", "load_config", False),
    ("runner.simulate_config", "runner", "simulate_config", False),
    ("runner.observable_columns", "runner", "observable_columns", False),
    ("runner.write_csv", "runner", "write_csv", False),
    ("svgplot.emit_svg", "svgplot", "emit_svg", False),
    ("jc.build_jc", "jc", "build_jc", False),
    ("eigenops.decompose", "eigenops", "decompose", False),
    ("eigenops.eigenoperators", "eigenops", "eigenoperators", False),
    ("master_equation.integrate", "master_equation", "integrate", True),
    ("master_equation.jump_operators", "master_equation", "jump_operators", False),
    ("trajectories.effective_generator", "trajectories", "effective_generator", False),
    ("trajectories.solve_hierarchy", "trajectories", "solve_hierarchy", True),
    ("trajectories.mcwf_unravel", "trajectories", "mcwf_unravel", True),
    ("jc.observables", "jc", "excited_population", False),
    ("jc.observables", "jc", "two_qubit_projection", False),
    ("jc.observables", "jc", "wootters_concurrence", False),
)

SUPEROP_DIM = 32  # rhs path switch of integrate/solve_hierarchy at the defining commit
MCWF_JUMP_PROB = 0.01  # default max_jump_prob of mcwf_unravel


class Tracer:
    """In-memory span recorder; ``case`` tags the spans of the running case."""

    def __init__(self):
        self.spans: list = []
        self.calls: list = []  # (name, args, kwargs, result)
        self.case = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep_call: bool = False):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.case, t0, t1)
            if keep_call:
                self.calls.append((name, args, kwargs, result))
            return result

        return traced


def _cobath_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "cobath" or n.startswith("cobath."))]


def install(tracer: Tracer) -> list:
    """Wrap every target at each lookup site; returns what ``uninstall`` restores."""
    from cobath.core import DensityMatrix

    restore = []
    modules = _cobath_modules()
    for name, modname, attr, keep in TARGETS:
        target = getattr(sys.modules.get("cobath." + modname), attr, None)
        if target is None:
            continue  # the layer no longer exists under this name
        wrapped = tracer.wrap(name, target, keep)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is target:
                    restore.append((mod, key, value))
                    setattr(mod, key, wrapped)
    post_init = DensityMatrix.__post_init__
    restore.append((DensityMatrix, "__post_init__", post_init))
    DensityMatrix.__post_init__ = tracer.wrap("core.DensityMatrix", post_init)
    return restore


def uninstall(restore: list):
    for owner, key, value in reversed(restore):
        setattr(owner, key, value)


def span_totals(spans) -> dict:
    """Per span name: total seconds, self seconds and number of calls."""
    child = [0.0] * len(spans)
    for name, parent, case, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, list] = {}
    for sid, (name, parent, case, t0, t1) in enumerate(spans):
        agg = out.setdefault(name, [0.0, 0.0, 0])
        agg[0] += t1 - t0
        agg[1] += t1 - t0 - child[sid]
        agg[2] += 1
    return out


# ------------------------------------------------------------ work counts

def _arg(call, index, name, default=None):
    _, args, kwargs, _ = call
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def rk4_step(me) -> float:
    """The fixed-step rule: 1/50 of the fastest coherent period or decay time."""
    h = me.H_S.matrix
    evals = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    w = max(float(evals[-1] - evals[0]), max((abs(f) for f in me.tensor.frequencies), default=0.0))
    g = max((float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1]) for m in me.tensor.gamma),
            default=0.0)
    candidates = ([2.0 * math.pi / w] if w > 0 else []) + ([1.0 / g] if g > 0 else [])
    return min(candidates) / 50.0 if candidates else math.inf


def substeps(grid, h_max: float) -> int:
    spans = np.diff(np.asarray(grid, dtype=float))
    if not math.isfinite(h_max):
        return len(spans)
    return sum(max(1, int(math.ceil(s / h_max))) for s in spans)


def _n_terms(me) -> int:
    return sum(1 for g in me.tensor.gamma for x in np.asarray(g).ravel() if complex(x) != 0)


def work_counts(calls, jump_operators) -> dict:
    """Computed counts of one pass, from the kept integrate/hierarchy/MCWF calls."""
    c = {"master_equation.substeps": 0, "master_equation.macs": 0,
         "trajectories.hierarchy.substeps": 0, "trajectories.hierarchy.macs": 0,
         "trajectories.mcwf.substeps": 0, "trajectories.mcwf.jumps": 0}
    for call in calls:
        name = call[0]
        me = _arg(call, 0, "me")
        d = me.space.total_dim
        if name == "trajectories.mcwf_unravel":
            ops = [op.matrix for op in jump_operators(me)]
            rate = sum(float(np.linalg.norm(m, ord=2)) ** 2 for m in ops)
            dt = _arg(call, 5, "max_jump_prob", MCWF_JUMP_PROB) / rate if rate > 0 else math.inf
            n_traj = _arg(call, 3, "n_traj")
            c["trajectories.mcwf.substeps"] += n_traj * substeps(_arg(call, 2, "t_grid"), dt)
            c["trajectories.mcwf.jumps"] += sum(
                len(r) for r in getattr(call[3], "jump_records", ()))
            continue
        step = _arg(call, 4 if name.endswith("solve_hierarchy") else 3, "max_step")
        n = substeps(_arg(call, 2, "t_grid"), rk4_step(me) if step is None else float(step))
        if name == "master_equation.integrate":
            per_rhs = d**4 if d <= SUPEROP_DIM else (4 + 2 * _n_terms(me)) * d**3
            c["master_equation.substeps"] += n
            c["master_equation.macs"] += 4 * n * per_rhs
        else:
            rho0, number = _arg(call, 1, "rho0"), _arg(call, 3, "number_op")
            top = int(round(float(np.trace(number.matrix @ rho0.matrix).real)))
            if d <= SUPEROP_DIM:
                per_rhs = (2 * top + 1) * d**4
            else:
                per_rhs = 2 * (top + 1) * d**3 + 2 * top * _n_terms(me) * d**3
            c["trajectories.hierarchy.substeps"] += n
            c["trajectories.hierarchy.macs"] += 4 * n * per_rhs
    return c


def median_of(passes: list[dict]) -> dict:
    keys = sorted({k for p in passes for k in p})
    return {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}
