import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cobath.cli import main
from cobath.config import ConfigError, load_config, parse_config
from cobath.jc import (
    excited_population,
    ground_population,
    jc_space,
    sector_entries,
    two_qubit_projection,
    wootters_concurrence,
)
from cobath.runner import (
    observable_columns,
    read_csv,
    run_to_files,
    simulate_config,
    sweep_to_files,
)
from cobath.svgplot import emit_svg

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def base_config(**overrides):
    cfg = {
        "model": "jc-common",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "g12": 0.01},
        "grid": {"t_end": 120.0, "n_steps": 61},
        "outputs": ["population", "concurrence", "trace", "purity"],
        "engine": "integrate",
    }
    cfg.update(overrides)
    return cfg


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "cobath", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


# ----------------------------------------------------------------- parsing

def test_minimal_config_fills_defaults():
    cfg = parse_config(
        json.dumps(
            {
                "model": "jc-common",
                "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01},
                "grid": {"t_end": 10.0, "n_steps": 11},
            }
        )
    )
    assert cfg.engine == "integrate"
    assert cfg.outputs == ("population",)
    assert cfg.initial == "atom"
    assert cfg.params.g12 == 0
    assert cfg.params.n_max == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(json.dumps(base_config(frobnicate=1)))


def test_negative_rate_names_path():
    bad = base_config()
    bad["params"]["g11"] = -0.5
    with pytest.raises(ConfigError, match="params.g11"):
        parse_config(json.dumps(bad))


def test_cross_rate_psd_error_at_parse_time():
    bad = base_config()
    bad["params"]["g12"] = 0.5
    with pytest.raises(ConfigError, match="params.g12"):
        parse_config(json.dumps(bad))


def test_two_bath_model_forbids_cross_rate():
    bad = base_config(model="jc-two-bath")
    with pytest.raises(ConfigError, match="g12"):
        parse_config(json.dumps(bad))


def test_mcwf_requires_seed_and_traj():
    cfg = base_config(engine="mcwf")
    with pytest.raises(ConfigError, match="mcwf"):
        parse_config(json.dumps(cfg))
    cfg["mcwf"] = {"n_traj": 10}
    with pytest.raises(ConfigError, match="mcwf.seed"):
        parse_config(json.dumps(cfg))


def test_closed_form_needs_single_excitation():
    cfg = base_config(engine="closed-form")
    cfg["params"]["n_exc"] = 2
    cfg["outputs"] = ["population"]
    with pytest.raises(ConfigError, match="closed-form"):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_runs_with_its_subcommand(path, tmp_path):
    cfg = load_config(str(path))
    if cfg.sweep is not None:
        command = "sweep"
    elif cfg.engine == "mcwf":
        command = "trajectories"
    else:
        command = "simulate"
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert any(tmp_path.glob("*.csv")) and any(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("name", ["custom_tensor", "two_excitations"])
def test_engine_override_applies_engine_checks(name, tmp_path, capsys):
    if name == "custom_tensor":
        cfg_path = CONFIGS / "custom_tensor.json"
    else:
        cfg = base_config(outputs=["population", "blocks"])
        cfg["params"]["n_exc"] = 2
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out), "--engine", "closed-form"]
    assert main(argv) == 2
    assert "engine: closed-form requires" in capsys.readouterr().err
    assert not out.exists()


def test_custom_tensor_roundtrip():
    cfg = parse_config(
        json.dumps(
            {
                "model": "custom-tensor",
                "params": {
                    "omega0": 1.0,
                    "eps": 0.1,
                    "tensor": {
                        "frequencies": [1.0],
                        "gamma": [[[0.01, [0.005, 0.002]], [[0.005, -0.002], 0.02]]],
                    },
                },
                "grid": {"t_end": 10.0, "n_steps": 11},
            }
        )
    )
    assert cfg.tensor is not None
    assert cfg.tensor.gamma[0][0, 1] == pytest.approx(0.005 + 0.002j)


def test_custom_tensor_rejects_unphysical_rates():
    with pytest.raises(ConfigError, match="params.tensor"):
        parse_config(
            json.dumps(
                {
                    "model": "custom-tensor",
                    "params": {
                        "omega0": 1.0,
                        "eps": 0.1,
                        "tensor": {
                            "frequencies": [1.0],
                            "gamma": [[[0.01, 0.05], [0.05, 0.01]]],
                        },
                    },
                    "grid": {"t_end": 10.0, "n_steps": 11},
                }
            )
        )


def test_custom_tensor_rejects_rate_without_coupling_component():
    cfg = {
        "model": "custom-tensor",
        "params": {
            "omega0": 1.0,
            "eps": 0.1,
            "tensor": {
                "frequencies": [1.0, 2.0],
                "gamma": [[[0.01, 0.0], [0.0, 0.02]], [[0.01, 0.0], [0.0, 0.02]]],
            },
        },
        "grid": {"t_end": 10.0, "n_steps": 11},
    }
    with pytest.raises(ConfigError, match=r"params\.tensor\.frequencies\[1\]"):
        parse_config(json.dumps(cfg))
    # absorption entries are filtered, not matched
    cfg["params"]["tensor"]["frequencies"] = [1.0, -2.0]
    assert parse_config(json.dumps(cfg)).tensor.frequencies == (1.0,)


# ------------------------------------------------------------------ engines

def test_engines_agree_columnwise(tmp_path):
    cfg_text = json.dumps(base_config())
    cfg = parse_config(cfg_text)
    import dataclasses

    files = {}
    for engine in ("integrate", "hierarchy", "closed-form"):
        point = dataclasses.replace(cfg, engine=engine)
        out = run_to_files(point, tmp_path, f"run_{engine}", fmt="csv")
        files[engine] = read_csv(out[0])
    h0, d0 = files["integrate"]
    for other in ("hierarchy", "closed-form"):
        h1, d1 = files[other]
        assert h0 == h1
        assert np.nanmax(np.abs(d0 - d1)) < 1e-6


def test_closed_form_population_is_rabi(tmp_path):
    cfg = parse_config(
        json.dumps(
            base_config(
                engine="closed-form",
                params={"omega0": 1.0, "eps": 0.1, "g11": 0.0, "g22": 0.0, "g12": 0.0},
                outputs=["population"],
            )
        )
    )
    out = run_to_files(cfg, tmp_path, "rabi", fmt="csv")
    header, data = read_csv(out[0])
    t = data[:, 0]
    np.testing.assert_allclose(data[:, 1], np.cos(0.1 * t) ** 2, atol=1e-12)


def test_sweep_emits_suffixed_files(tmp_path):
    cfg = parse_config(
        json.dumps(base_config(sweep={"param": "g12", "values": [0, 0.005, 0.01]}))
    )
    files = sweep_to_files(cfg, tmp_path, "scan", fmt="csv")
    names = sorted(p.name for p in files)
    assert names == ["scan_g12_0.0.csv", "scan_g12_0.005.csv", "scan_g12_0.01.csv"]


def test_sweep_rejects_unphysical_value(tmp_path):
    cfg = parse_config(
        json.dumps(base_config(sweep={"param": "g12", "values": [0.5]}))
    )
    with pytest.raises(ConfigError, match="sweep.values"):
        sweep_to_files(cfg, tmp_path, "scan", fmt="csv")


def test_custom_tensor_matches_equivalent_jc_model(tmp_path):
    shared = {"omega0": 1.0, "eps": 0.1}
    jc = parse_config(
        json.dumps(
            base_config(
                params={**shared, "g11": 0.01, "g22": 0.02, "g12": 0.005},
                outputs=["population", "trace"],
            )
        )
    )
    custom = parse_config(
        json.dumps(
            base_config(
                model="custom-tensor",
                params={
                    **shared,
                    "tensor": {
                        "frequencies": [1.0],
                        "gamma": [[[0.01, 0.005], [0.005, 0.02]]],
                    },
                },
                outputs=["population", "trace"],
            )
        )
    )
    f1 = run_to_files(jc, tmp_path, "jc", fmt="csv")
    f2 = run_to_files(custom, tmp_path, "custom", fmt="csv")
    _, d1 = read_csv(f1[0])
    _, d2 = read_csv(f2[0])
    np.testing.assert_allclose(d1, d2, atol=1e-12)


# ---------------------------------------------------------------- round trip

def columns_state_by_state(cfg, states) -> dict:
    """The observable columns, built one state at a time from the single-state functions."""
    p = cfg.params
    space = jc_space(p)

    def over(x, w):
        return x / w if w > 1e-12 else float("nan")

    rows = []
    for s in states:
        row = {"population": excited_population(s, space), "trace": s.trace,
               "purity": s.purity(), "block0_p00": ground_population(s, space)}
        if p.n_exc == 1:
            r11, r12, r22 = sector_entries(s, space, 1)
            row["concurrence"] = wootters_concurrence(two_qubit_projection(s, space))
            row["concurrence_conditional"] = over(2.0 * abs(r12), r11 + r22)
        for i in range(1, p.n_exc + 1):
            r11, r12, r22 = sector_entries(s, space, i)
            row.update({f"block{i}_p11": r11, f"block{i}_re_p12": r12.real,
                        f"block{i}_im_p12": r12.imag, f"block{i}_p22": r22})
        r11, r12, r22 = sector_entries(s, space, p.n_exc)
        w = r11 + r22
        row.update({"cond_p11": over(r11, w), "cond_re_p12": over(r12.real, w),
                    "cond_im_p12": over(r12.imag, w), "cond_p22": over(r22, w)})
        rows.append(row)
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


@pytest.mark.parametrize(
    "n_exc, engine, initial, outputs, t_end",
    [
        (2, "hierarchy", "atom",
         ["population", "trace", "purity", "blocks", "conditional-state"], 200.0),
        (1, "integrate", "mix", ["concurrence"], 2000.0),
    ],
)
def test_observable_columns_match_state_by_state(n_exc, engine, initial, outputs, t_end):
    # strong rates drain the no-emission weight below the floor: NaNs at late times
    cfg = parse_config(json.dumps(base_config(
        model="jc-mirror",
        params={"omega0": 1.0, "eps": 0.1, "g11": 0.1, "g22": 0.1, "g12": 0.1,
                "k_mirror": 0.1, "n_exc": n_exc},
        grid={"t_end": t_end, "n_steps": 41},
        outputs=outputs, engine=engine, initial=initial,
    )))
    states = simulate_config(cfg)
    cols = observable_columns(cfg, states)
    ref = columns_state_by_state(cfg, states)
    nan_rows = 0
    for name, col in cols:
        assert col.shape == (len(states),)
        np.testing.assert_array_equal(np.isnan(col), np.isnan(ref[name]), err_msg=name)
        assert np.nanmax(np.abs(col - ref[name])) <= 1e-14, name
        nan_rows = max(nan_rows, int(np.isnan(col).sum()))
    assert 0 < nan_rows < len(states)


def test_write_csv_matches_per_cell_repr(tmp_path):
    from cobath.runner import write_csv

    def per_cell(path, t, cols):
        # the reference layout: repr(float(.)) of every cell, row by row
        lines = ["t," + ",".join(name for name, _ in cols)]
        for k in range(len(t)):
            lines.append(",".join([repr(float(t[k]))] + [repr(float(c[k])) for _, c in cols]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    t = np.linspace(0.0, 1.0, 8)
    cols = [
        ("special", np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e308])),
        ("integer", np.arange(-3, 5)),
        ("mixed", np.array([0.1, 1 / 3, -1e-17, 123456789.0, np.nan, 2.5, -np.inf, 7.0])),
    ]
    write_csv(tmp_path / "new.csv", t, cols)
    per_cell(tmp_path / "ref.csv", t, cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    rows = (tmp_path / "new.csv").read_text().splitlines()
    assert rows[2] == "0.14285714285714285,inf,-2.0,0.3333333333333333"
    assert [r.split(",")[1] for r in rows[4:7]] == ["-0.0", "0.0", "5e-324"]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "short.csv", t, [("short", np.zeros(3))])


def test_csv_roundtrip_full_precision(tmp_path):
    cfg = parse_config(json.dumps(base_config()))
    from cobath.runner import observable_columns, simulate_config, write_csv

    states = simulate_config(cfg)
    cols = observable_columns(cfg, states)
    grid = cfg.grid.times()
    path = tmp_path / "rt.csv"
    write_csv(path, grid, cols)
    header, data = read_csv(path)
    assert header[0] == "t"
    np.testing.assert_array_equal(data[:, 0], grid)
    for j, (name, col) in enumerate(cols):
        assert header[j + 1] == name
        np.testing.assert_array_equal(data[:, j + 1], col)


# ----------------------------------------------------------------------- svg

def test_svg_constant_series_is_horizontal_line():
    t = np.linspace(0.0, 1.0, 5)
    svg = emit_svg(t, [("flat", np.full(5, 0.5))])
    poly = [ln for ln in svg.splitlines() if "polyline" in ln]
    assert len(poly) == 1
    ys = {pt.split(",")[1] for pt in poly[0].split('points="')[1].split('"')[0].split()}
    assert len(ys) == 1


def test_svg_non_finite_samples_split_the_curve():
    t = np.arange(5.0)
    svg = emit_svg(t, [("y", np.array([0.0, 1.0, np.nan, 0.5, np.inf]))])
    marks = [ln for ln in svg.splitlines() if ln.startswith(("<polyline", "<circle"))]
    assert marks == [
        '<polyline points="70.000,412.273 212.500,57.727" fill="none" stroke="#1f77b4" '
        'stroke-width="1.5"/>',
        '<circle cx="497.500" cy="235.000" r="1.5" fill="#1f77b4"/>',
    ]


def test_svg_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        emit_svg(np.array([]), [("x", np.array([]))])


def test_svg_dfs_conditional_concurrence_saturates(tmp_path):
    cfg = parse_config(
        json.dumps(
            base_config(
                grid={"t_end": 1000.0, "n_steps": 201}, outputs=["concurrence"]
            )
        )
    )
    files = run_to_files(cfg, tmp_path, "dfs", fmt="both")
    header, data = read_csv(files[0])
    cond = data[:, header.index("concurrence_conditional")]
    assert cond[0] == pytest.approx(0.0, abs=1e-9)
    assert cond[-1] > 0.99 * np.nanmax(cond)
    assert files[1].suffix == ".svg"
    assert "polyline" in files[1].read_text()


def test_svg_mirror_run_concurrence_returns_to_zero(tmp_path):
    params = {
        "omega0": 1.0,
        "eps": 0.1,
        "g11": 0.01,
        "g22": 0.01,
        "g12": 0.01,
        "k_mirror": 0.05,
    }
    cfg = parse_config(
        json.dumps(
            base_config(
                model="jc-mirror",
                params=params,
                grid={"t_end": 1000.0, "n_steps": 201},
                outputs=["concurrence"],
            )
        )
    )
    files = run_to_files(cfg, tmp_path, "mirror", fmt="csv")
    header, data = read_csv(files[0])
    env = data[:, header.index("concurrence")]
    assert np.nanmax(env) > 0.2  # transient entanglement built up
    assert env[-1] < 0.05  # and destroyed by the independent loss channel


# ------------------------------------------------------------------- process

def test_cli_end_to_end_deterministic(tmp_path):
    cfg = base_config(
        engine="mcwf",
        mcwf={"n_traj": 60, "seed": 2024},
        outputs=["population", "trace"],
        grid={"t_end": 60.0, "n_steps": 31},
    )
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("trajectories", "--config", str(cfg_path), "--out", str(out1))
    r2 = run_cli("trajectories", "--config", str(cfg_path), "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
    assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()
    assert (out1 / "run.svg").read_bytes() == (out2 / "run.svg").read_bytes()


def test_cli_seed_override_changes_output(tmp_path):
    cfg = base_config(
        engine="mcwf",
        mcwf={"n_traj": 60, "seed": 2024},
        outputs=["population"],
        grid={"t_end": 60.0, "n_steps": 31},
    )
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    r1 = run_cli("trajectories", "--config", str(cfg_path), "--out", str(tmp_path / "a"))
    r2 = run_cli(
        "trajectories", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "7"
    )
    assert r1.returncode == 0 and r2.returncode == 0
    a = (tmp_path / "a" / "run.csv").read_bytes()
    b = (tmp_path / "b" / "run.csv").read_bytes()
    assert a != b


def test_cli_plot_subcommand(tmp_path):
    cfg_path = tmp_path / "p.json"
    cfg_path.write_text(json.dumps(base_config(outputs=["population"])))
    r = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path), "--format", "csv")
    assert r.returncode == 0, r.stderr
    r2 = run_cli("plot", str(tmp_path / "p.csv"), "--out", str(tmp_path / "plots"))
    assert r2.returncode == 0, r2.stderr
    assert (tmp_path / "plots" / "p.svg").exists()


MALFORMED_CSV = [
    ("non_numeric_cell", "t,a\n0.0,1.0\n1.0,x\n", [], "line 3: could not convert"),
    ("ragged_row", "t,a\n0.0,1.0\n1.0\n", [], "line 3: 1 cells, header has 2"),
    ("no_column_named", "t,a\n0.0,1.0\n1.0,2.0\n", ["--columns", ","], "nothing to plot"),
    ("empty_file", "", [], "empty file"),
    ("no_finite_sample", "t,a\n0.0,nan\n1.0,nan\n", [], "no finite samples"),
]


@pytest.mark.parametrize(
    "text, flags, message", [case[1:] for case in MALFORMED_CSV], ids=[c[0] for c in MALFORMED_CSV]
)
def test_cli_plot_malformed_csv_is_config_error(text, flags, message, tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text(text)
    assert main(["plot", str(src), "--out", str(tmp_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(src) in err and message in err
    assert not (tmp_path / "in.svg").exists()


def test_cli_exit_code_config_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    bad = base_config()
    bad["params"]["g11"] = -1.0
    cfg_path.write_text(json.dumps(bad))
    r = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path))
    assert r.returncode == 2
    assert "params.g11" in r.stderr


def _custom_tensor_config():
    return base_config(
        model="custom-tensor",
        params={
            "omega0": 1.0,
            "eps": 0.1,
            "tensor": {"frequencies": [1.0], "gamma": [[[0.01, 0.0], [0.0, 0.02]]]},
        },
        outputs=["population"],
    )


def _set(cfg, path, value):
    keys = path.replace("[", ".").replace("]", "").split(".")
    node = cfg
    for key in keys[:-1]:
        node = node[int(key) if key.isdigit() else key]
    last = keys[-1]
    node[int(last) if last.isdigit() else last] = value


NON_FINITE = [
    ("params.g11", float("nan")),
    ("params.eps", [0.1, float("nan")]),
    ("grid.t_end", float("inf")),
    ("sweep.values[1]", float("-inf")),
    ("params.tensor.frequencies[0]", float("nan")),
    ("params.tensor.gamma[0][0][1]", float("nan")),
]


@pytest.mark.parametrize("path, value", NON_FINITE, ids=[path for path, _ in NON_FINITE])
def test_cli_rejects_non_finite_numbers(path, value, tmp_path, capsys):
    cfg = _custom_tensor_config() if path.startswith("params.tensor") else base_config()
    if path.startswith("sweep"):
        cfg["sweep"] = {"param": "g12", "values": [0.0, 0.005]}
    _set(cfg, path, value)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))  # json writes NaN / Infinity
    command = "sweep" if path.startswith("sweep") else "simulate"
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert path in err and "must be a finite number" in err


NON_POSITIVE_OMEGA0 = [
    ("simulate", {"omega0": -1.0}, "params.omega0"),
    ("simulate", {"omega0": 0}, "params.omega0"),
    ("sweep", {"sweep": {"param": "omega0", "values": [1.0, 0.0]}}, "sweep.values[1]"),
]


@pytest.mark.parametrize(
    "command, change, path",
    NON_POSITIVE_OMEGA0,
    ids=["negative", "zero", "sweep_through_zero"],
)
def test_cli_rejects_non_positive_omega0(command, change, path, tmp_path, capsys):
    # a negative omega0 used to run, pumping quanta into the truncated mode
    cfg = base_config(outputs=["population"])
    if "omega0" in change:
        cfg["params"]["omega0"] = change["omega0"]
    else:
        cfg.update(change)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    args = [command, "--config", str(cfg_path), "--out", str(tmp_path), "--format", "csv"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert path in err and "must be > 0" in err


def test_cli_rejects_negative_seed_override(tmp_path, capsys):
    cfg = base_config(engine="mcwf", mcwf={"n_traj": 4, "seed": 1}, outputs=["population"])
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    args = ["trajectories", "--config", str(cfg_path), "--out", str(tmp_path), "--seed", "-1"]
    assert main(args) == 2
    assert "--seed: must be >= 0" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_cli_exit_code_io_error(tmp_path):
    cfg_path = tmp_path / "ok.json"
    cfg_path.write_text(json.dumps(base_config(outputs=["population"])))
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    r = run_cli("simulate", "--config", str(cfg_path), "--out", str(target))
    assert r.returncode == 4


def test_cli_sweep_requires_sweep_section(tmp_path):
    cfg_path = tmp_path / "nosweep.json"
    cfg_path.write_text(json.dumps(base_config(outputs=["population"])))
    r = run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path))
    assert r.returncode == 2
