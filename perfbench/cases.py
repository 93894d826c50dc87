"""Workload definitions: the cases each workload runs, generated from the seed.

A case is one ``cobath`` command line: a subcommand, a config written by the
benchmark, and an optional ``--seed``.  Parameters drawn from the seed stay
in narrow ranges inside the positivity bound |g12|^2 <= g11 g22, so every
seed does nearly the same work and every case runs without error.
This module uses only the standard library.
"""

from __future__ import annotations

import copy
import math
import random

WORKLOADS = ("shipped", "mcwf", "dense-output", "many-quanta")

# Copies of configs/*.json at the commit that defined this benchmark.  They
# are embedded so that the workload does not change when a shipped example
# does.
SHIPPED = {
    "jc_common_dfs": {
        "model": "jc-common",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "g12": 0.01, "n_exc": 1},
        "grid": {"t_end": 1000.0, "n_steps": 201},
        "outputs": ["population", "concurrence", "trace", "purity"],
        "engine": "integrate",
    },
    "jc_two_bath": {
        "model": "jc-two-bath",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.02, "n_exc": 1},
        "grid": {"t_end": 250.0, "n_steps": 501},
        "outputs": ["population", "concurrence"],
        "engine": "integrate",
    },
    "custom_tensor": {
        "model": "custom-tensor",
        "params": {
            "omega0": 1.0,
            "eps": 0.1,
            "n_exc": 1,
            "tensor": {
                "frequencies": [1.0],
                "gamma": [[[0.01, [0.006, 0.004]], [[0.006, -0.004], 0.02]]],
            },
        },
        "grid": {"t_end": 300.0, "n_steps": 151},
        "outputs": ["population", "trace", "blocks"],
        "engine": "integrate",
    },
    "jc_mirror": {
        "model": "jc-mirror",
        "params": {
            "omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "g12": 0.01,
            "k_mirror": 0.05, "n_exc": 1,
        },
        "grid": {"t_end": 1000.0, "n_steps": 201},
        "outputs": ["population", "concurrence", "conditional-state"],
        "engine": "hierarchy",
    },
    "sweep_cross_rate": {
        "model": "jc-common",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "n_exc": 1},
        "grid": {"t_end": 1000.0, "n_steps": 201},
        "outputs": ["population", "concurrence"],
        "engine": "integrate",
        "sweep": {"param": "g12", "values": [0.0, 0.005, 0.01]},
    },
    "mcwf_dfs": {
        "model": "jc-common",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "g12": 0.01, "n_exc": 1},
        "grid": {"t_end": 1000.0, "n_steps": 101},
        "outputs": ["population", "trace"],
        "engine": "mcwf",
        "mcwf": {"n_traj": 2000, "seed": 7},
    },
}

ALL_OUTPUTS = ["population", "concurrence", "trace", "purity", "blocks", "conditional-state"]
DENSE_STEPS = 4001
MIRROR_TRAJ = 500
MANY_QUANTA_T_END = 0.5


def _case(name, command, config, seed_arg=None, pair=None):
    return {"name": name, "command": command, "config": copy.deepcopy(config),
            "seed_arg": seed_arg, "pair": pair}


def _rates(rng, cross):
    """Draw (g11, g22, g12) around 0.01 with |g12| = cross * sqrt(g11 g22)."""
    g11 = rng.uniform(0.0095, 0.0105)
    g22 = rng.uniform(0.0095, 0.0105)
    return g11, g22, cross * math.sqrt(g11 * g22)


def _shipped(rng):
    return [
        _case(name, "sweep" if name == "sweep_cross_rate" else "simulate", SHIPPED[name])
        for name in ("jc_common_dfs", "jc_two_bath", "custom_tensor", "jc_mirror",
                     "sweep_cross_rate")
    ]


def _mcwf(rng):
    dfs_seed = rng.randrange(2**31)
    g11, g22, g12 = _rates(rng, rng.uniform(0.85, 1.0))
    mirror = {
        "model": "jc-mirror",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": g11, "g22": g22, "g12": g12,
                   "k_mirror": rng.uniform(0.048, 0.052), "n_exc": 1},
        "grid": dict(SHIPPED["mcwf_dfs"]["grid"]),
        "outputs": ["population", "trace"],
        "engine": "mcwf",
        "mcwf": {"n_traj": MIRROR_TRAJ, "seed": rng.randrange(2**31)},
    }
    return [
        _case("mcwf_dfs", "trajectories", SHIPPED["mcwf_dfs"], seed_arg=dfs_seed),
        _case("mcwf_mirror", "trajectories", mirror),
    ]


def _dense(rng):
    g = rng.uniform(0.0095, 0.0105)
    common = {"g11": g, "g22": g, "g12": g}  # the DFS boundary point
    g11, g22, g12 = _rates(rng, rng.uniform(0.5, 1.0))
    mirror = {"g11": g11, "g22": g22, "g12": g12, "k_mirror": rng.uniform(0.045, 0.055)}
    g11, g22, _ = _rates(rng, 0.0)
    two_bath = {"g11": g11, "g22": 2.0 * g22}
    cases = []
    for model, rates in (("jc-common", common), ("jc-mirror", mirror),
                         ("jc-two-bath", two_bath)):
        cases.append(_case(
            "dense_" + model.replace("-", "_"),
            "simulate",
            {
                "model": model,
                "params": {"omega0": 1.0, "eps": 0.1, **rates, "n_exc": 1},
                "grid": {"t_end": 1000.0, "n_steps": DENSE_STEPS},
                "outputs": ALL_OUTPUTS,
                "engine": "closed-form",
            },
        ))
    return cases


def _many_quanta(rng):
    g11, g22, g12 = _rates(rng, rng.uniform(0.5, 0.95))
    params = {"omega0": 1.0, "eps": 0.1, "g11": g11, "g22": g22, "g12": g12}
    cases = []
    # n_exc 13 gives dim 32, the last dimension on the superoperator rhs path;
    # 14 gives dim 34 on the matrix path; 30 gives dim 66
    for n_exc, engines in ((13, ("integrate", "hierarchy")), (14, ("integrate", "hierarchy")),
                           (30, ("integrate",))):
        for engine in engines:
            cases.append(_case(
                f"nexc{n_exc}_{engine}",
                "simulate",
                {
                    "model": "jc-common",
                    "params": {**params, "n_exc": n_exc},
                    "grid": {"t_end": MANY_QUANTA_T_END, "n_steps": 6},
                    "outputs": ["population", "trace", "conditional-state"],
                    "engine": engine,
                },
                pair=f"nexc{n_exc}_integrate" if engine == "hierarchy" else None,
            ))
    return cases


def _reduce(case):
    """Shrink a case to a fraction of a second, for the benchmark's own test."""
    cfg = case["config"]
    cfg["grid"] = {"t_end": cfg["grid"]["t_end"] / 20.0,
                   "n_steps": min(cfg["grid"]["n_steps"], 11)}
    if "mcwf" in cfg:
        cfg["mcwf"]["n_traj"] = min(cfg["mcwf"]["n_traj"], 50)


def build_cases(workload: str, seed: int, reduced: bool = False) -> list[dict]:
    """The ordered case list of a workload; the same seed gives the same cases."""
    builders = {"shipped": _shipped, "mcwf": _mcwf, "dense-output": _dense,
                "many-quanta": _many_quanta}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cases = builders[workload](random.Random(f"cobath-bench/{workload}/{seed}"))
    if reduced:
        for case in cases:
            _reduce(case)
    return cases


def points(case: dict) -> list[dict]:
    """The single-run configs a case expands to: one per sweep value, else itself."""
    cfg = case["config"]
    if "sweep" not in cfg:
        return [cfg]
    out = []
    for value in cfg["sweep"]["values"]:
        point = {k: v for k, v in cfg.items() if k != "sweep"}
        point["params"] = {**cfg["params"], cfg["sweep"]["param"]: value}
        out.append(point)
    return out
