"""Fresh-process side of the benchmark.

    python3 perfbench/worker.py setup <config.json>
        Prints the seconds from before ``import cobath`` through the first
        ``load_config`` and ``build_model``.
    python3 perfbench/worker.py run <spec.json>
        Runs one workload as a closed loop: one client runs the cases one
        after another through ``cobath.cli.main`` for the spec's seconds,
        checks every emitted state against its oracle and writes
        ``result.json`` next to the spec.

``run.py`` starts both with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count fixed.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def setup(config_path: str):
    t0 = time.perf_counter()
    import cobath  # noqa: F401
    from cobath.config import load_config
    from cobath.runner import build_model

    build_model(load_config(config_path))
    print(repr(time.perf_counter() - t0))


def _environment(spec) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": spec["seed"],
    }


def _artefacts(out_dir: Path) -> tuple[dict, int, int]:
    """sha256 of each CSV, and bytes of CSV and SVG written in a case directory."""
    shas, csv_bytes, svg_bytes = {}, 0, 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".csv":
            shas[path.name] = hashlib.sha256(data).hexdigest()
            csv_bytes += len(data)
        elif path.suffix == ".svg":
            svg_bytes += len(data)
    return shas, csv_bytes, svg_bytes


def run(spec_path: str):
    spec_file = Path(spec_path)
    spec = json.loads(spec_file.read_text())
    src = Path(spec["src"]).resolve()

    import numpy as np

    import cobath
    from cobath import cli, runner
    from cobath.master_equation import jump_operators

    if src not in Path(cobath.__file__).resolve().parents:
        raise SystemExit(f"cobath imported from {cobath.__file__}, not from {src}")

    import oracles
    import tracing
    from cases import points

    cases = spec["cases"]
    refs = [[oracles.prepare(p, spec["perturb"]) for p in points(c)] for c in cases]

    captured: list = []
    simulate = runner.simulate_config

    def capture(cfg):
        states = simulate(cfg)
        captured.append(states)
        return states

    runner.simulate_config = capture

    walls, traced_walls, case_walls = [], [], {c["name"]: [] for c in cases}
    layer_passes, attempted, failed, failures = [], 0, 0, []
    max_dev, z_max, shas = 0.0, 0.0, {}
    start = time.perf_counter()
    longest = 0.0
    last_traced = None
    k = 0
    while True:
        pass_start = time.perf_counter()
        traced = spec["trace"] and k % 2 == 1  # a traced run alternates plain and traced passes
        tracer = tracing.Tracer()
        restore = tracing.install(tracer) if traced else []
        main = tracer.wrap("cli.main", cli.main) if traced else cli.main
        wall, states_of, z_pass, csv_bytes, svg_bytes = 0.0, {}, 0.0, 0, 0
        for i, case in enumerate(cases):
            out_dir = Path(spec["workdir"]) / "out" / case["name"]
            argv = [case["command"], "--config", case["config_file"], "--out", str(out_dir)]
            if case["seed_arg"] is not None:
                argv += ["--seed", str(case["seed_arg"])]
            captured.clear()
            tracer.case = i
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            dt = time.perf_counter() - t0
            wall += dt
            case_walls[case["name"]].append(dt)
            attempted += 1

            ok, why = rc == 0 and len(captured) == len(refs[i]), f"exit code {rc}"
            for ref, states in zip(refs[i], captured) if ok else ():
                mats = np.array([s.matrix for s in states])
                res = oracles.check(ref, mats, states_of.get(case["pair"]))
                states_of[case["name"]] = mats
                max_dev, z_pass = max(max_dev, res["dev"]), max(z_pass, res.get("z", 0.0))
                if not res["ok"]:
                    ok, why = False, res["why"]
            case_shas, cb, sb = _artefacts(out_dir) if rc == 0 else ({}, 0, 0)
            csv_bytes, svg_bytes = csv_bytes + cb, svg_bytes + sb
            for name, sha in case_shas.items():
                if shas.setdefault(name, sha) != sha:
                    ok, why = False, f"{name} differs between passes"
            if not ok:
                failed += 1
                failures.append(f"pass {k} {case['name']}: {why}")
        captured.clear()
        z_max = max(z_max, z_pass)
        if traced:
            tracing.uninstall(restore)
            last_traced = tracer
            traced_walls.append(wall)
            layer_passes.append(_layer_metrics(tracer, cases, jump_operators,
                                               csv_bytes, svg_bytes, z_pass))
        else:
            walls.append(wall)
        k += 1
        # start another pass only if it is expected to end within the run's seconds
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        if now - start + longest > spec["seconds"] and (not spec["trace"] or k >= 2):
            break

    layers = tracing.median_of(layer_passes) if layer_passes else {}
    if layer_passes:
        layers["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    result = {
        "workload": spec["workload"],
        "environment": _environment(spec),
        "passes": len(walls) + len(traced_walls),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "wall_s": statistics.median(walls),
        "pass_walls_s": walls,
        "traced_pass_walls_s": traced_walls,
        "case_median_s": {n: statistics.median(v) for n, v in case_walls.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_dev": max_dev,
        "mcwf_z_max": z_max,
        "csv_sha256": shas,
        "layers": layers,
    }
    (spec_file.parent / "result.json").write_text(json.dumps(result, indent=1))
    if last_traced is not None:
        _write_spans(spec_file.parent / "spans.csv", last_traced, cases)


def _layer_metrics(tracer, cases, jump_operators, csv_bytes, svg_bytes, z_max) -> dict:
    import tracing

    totals = tracing.span_totals(tracer.spans)

    def get(name, field):
        return totals.get(name, (0.0, 0.0, 0))[field]

    m = {}
    for name in ("config.load_config", "runner.simulate_config", "runner.write_csv",
                 "svgplot.emit_svg", "jc.build_jc", "eigenops.decompose",
                 "eigenops.eigenoperators", "master_equation.jump_operators",
                 "trajectories.effective_generator", "core.DensityMatrix", "jc.observables",
                 "cli.main"):
        m[name + ".s"] = get(name, 0)
    for name in ("runner.observable_columns", "master_equation.integrate",
                 "trajectories.solve_hierarchy", "trajectories.mcwf_unravel"):
        m[name + ".self_s"] = get(name, 1)
    m["core.DensityMatrix.count"] = get("core.DensityMatrix", 2)
    m["jc.observables.calls"] = get("jc.observables", 2)
    for i, case in enumerate(cases):
        m[f"cli.main.{case['name']}.s"] = sum(
            s[4] - s[3] for s in tracer.spans if s[0] == "cli.main" and s[2] == i)
    m.update(tracing.work_counts(tracer.calls, jump_operators))
    mcwf_s = get("trajectories.mcwf_unravel", 0)
    n_traj = sum(tracing._arg(c, 3, "n_traj") for c in tracer.calls
                 if c[0] == "trajectories.mcwf_unravel")
    steps = m["trajectories.mcwf.substeps"]
    m["trajectories.mcwf.jump_yield"] = m["trajectories.mcwf.jumps"] / steps if steps else 0.0
    m["trajectories.mcwf.traj_per_s"] = n_traj / mcwf_s if mcwf_s else 0.0
    m["trajectories.mcwf.z_max"] = z_max
    m["runner.csv_bytes"] = csv_bytes
    m["svgplot.svg_bytes"] = svg_bytes
    tracer.calls.clear()
    return m


def _write_spans(path: Path, tracer, cases):
    with path.open("w", encoding="utf-8") as fh:
        fh.write("id,parent,case,name,start_s,end_s\n")
        for sid, (name, parent, case, t0, t1) in enumerate(tracer.spans):
            fh.write(f"{sid},{parent},{cases[case]['name']},{name},{t0!r},{t1!r}\n")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("setup", "run"):
        raise SystemExit("usage: worker.py setup <config.json> | run <spec.json>")
    (setup if sys.argv[1] == "setup" else run)(sys.argv[2])
