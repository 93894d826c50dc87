import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobath.cli import _build_parser, main
from cobath.config import OUTPUTS, ConfigError, load_config, parse_config
from cobath.jc import (
    excited_population,
    ground_population,
    jc_space,
    sector_entries,
    two_qubit_projection,
    wootters_concurrence,
    x_state_concurrence,
)
from cobath.runner import (
    ARRAY_CELLS,
    observable_columns,
    read_csv,
    run_to_files,
    simulate_config,
    sweep_to_files,
    write_csv,
)
from cobath.svgplot import emit_svg
from conftest import hermitian_parts_by_division, shipped_runs
from svg_reference import reference_emit_svg

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


def run_python(*args, cwd=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


def run_cli(*args, cwd=None, timeout=None):
    return run_python("-m", "cobath", *args, cwd=cwd, timeout=timeout)


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


@pytest.mark.parametrize("gamma, path", [
    ([[[0.01, 0.0], [0.0]]], "params.tensor.gamma[0][1]"),  # ragged: numpy cannot stack it
    ([[[0.01, 0.0, 0.0], [0.0, 0.02, 0.0]]], "params.tensor.gamma[0][0]"),  # 2 rows of 3
])
def test_custom_tensor_rejects_a_row_of_the_wrong_length(gamma, path, tmp_path, capsys):
    cfg = _custom_tensor_config()
    cfg["params"]["tensor"]["gamma"] = gamma
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected 2 entries"):
        parse_config(json.dumps(cfg))
    cfg_path = tmp_path / "ragged.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: expected 2 entries" in capsys.readouterr().err


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
            row["concurrence"] = x_state_concurrence(two_qubit_projection(s, space))
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


def per_cell_csv(path, t, cols):
    # the reference layout: repr(float(.)) of every cell, row by row
    lines = ["t," + ",".join(name for name, _ in cols)]
    for k in range(len(t)):
        lines.append(",".join([repr(float(t[k]))] + [repr(float(c[k])) for _, c in cols]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def csv_bytes(writer, table):
    """The bytes ``writer`` writes for a 2-D table whose first column is t."""
    cols = [(f"c{j}", table[:, j]) for j in range(1, table.shape[1])]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "table.csv"
        writer(path, table[:, 0], cols)
        return path.read_bytes()


def as_table(values, width=8):
    """The values, repeated as needed, as a table of at least ARRAY_CELLS cells."""
    rows = max(-(-len(values) // width), -(-ARRAY_CELLS // width))
    return np.resize(np.asarray(values, dtype=float), (rows, width))


def test_write_csv_matches_per_cell_repr(tmp_path):
    t = np.linspace(0.0, 1.0, 8)
    cols = [
        ("special", np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e308])),
        ("integer", np.arange(-3, 5)),
        ("mixed", np.array([0.1, 1 / 3, -1e-17, 123456789.0, np.nan, 2.5, -np.inf, 7.0])),
    ]
    write_csv(tmp_path / "new.csv", t, cols)
    per_cell_csv(tmp_path / "ref.csv", t, cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    rows = (tmp_path / "new.csv").read_text().splitlines()
    assert rows[2] == "0.14285714285714285,inf,-2.0,0.3333333333333333"
    assert [r.split(",")[1] for r in rows[4:7]] == ["-0.0", "0.0", "5e-324"]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "short.csv", t, [("short", np.zeros(3))])


def boundary_values():
    """Cells at the decisions of the shortest-digit search, and their negatives."""
    rng = np.random.default_rng(26)
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers_of_ten]
    up = down = powers_of_ten
    for _ in range(4):  # 10^k +- j ulp, j = 1..4
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    # dyadics m / 2^e (m odd) whose exact decimal m 5^e / 10^e has 18 significant
    # digits: the scaled value N sits exactly halfway between two 17-digit integers
    halfway = []
    for e in range(2, 26):
        m = rng.integers(-(-10**17 // 5**e) // 2, min(10**18 // 5**e, 2**53) // 2, 20) * 2 + 1
        halfway += np.ldexp(m.astype(float), -e).tolist()
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in halfway)
    # decimals whose 18th significant digit is 5, read to the nearest double
    ties = [float(f"{m}5e{e}") for m in rng.integers(10**16, 10**17, 300).tolist()
            for e in (-40, -21, -17, -5, 0, 3)]
    ties += [float(f"{m}5e{e}") for m in (1, 12, 125, 99999) for e in range(-30, 20)]
    small = [k / 2.0**m for k in range(1, 64) for m in range(1, 40, 3)]
    integers = [*rng.integers(0, 10**16, 500).astype(float).tolist(), 2.0**53 - 1, 2.0**53,
                *(10.0**j + d for j in range(16) for d in (-1.0, 0.0, 1.0))]
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    special = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               *(rng.integers(1, 2**52, 50).astype(np.uint64).view(np.float64)).tolist(),
               1.7976931348623157e308]
    switches = [1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 9.999999999999999e-05,
                1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 1e15,
                9999999999999998.0, 999999999999999.9, 0.00010000000000000002]
    cells = np.concatenate([*near, halfway, ties, small, integers, powers_of_two, special, switches])
    return np.concatenate([cells, -cells])


def test_write_csv_on_arrays_matches_per_cell_repr_on_boundary_classes():
    table = as_table(boundary_values(), width=15)
    assert table.size >= ARRAY_CELLS
    assert csv_bytes(write_csv, table) == csv_bytes(per_cell_csv, table)


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=400),
       floats=st.lists(st.floats(), min_size=1, max_size=400))
def test_write_csv_on_arrays_matches_per_cell_repr_on_any_float(bits, floats):
    cells = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), floats])
    table = as_table(cells)
    assert csv_bytes(write_csv, table) == csv_bytes(per_cell_csv, table)


@pytest.mark.parametrize("cells", [ARRAY_CELLS - 1, ARRAY_CELLS, ARRAY_CELLS + 1])
def test_write_csv_formats_as_arrays_from_the_threshold(cells, monkeypatch):
    import cobath.csvcells

    calls = []
    rows_bytes = cobath.csvcells.rows_bytes

    def spy(table):
        calls.append(table.shape)
        return rows_bytes(table)

    monkeypatch.setattr(cobath.csvcells, "rows_bytes", spy)
    table = (np.linspace(-1.0, 1.0, cells) ** 3)[:, None]
    assert csv_bytes(write_csv, table) == csv_bytes(per_cell_csv, table)
    assert calls == ([(cells, 1)] if cells >= ARRAY_CELLS else [])


def test_write_csv_on_arrays_of_no_row_and_of_one_row(tmp_path):
    from cobath.csvcells import rows_bytes

    assert rows_bytes(np.empty((0, 3))) == b""
    write_csv(tmp_path / "empty.csv", np.empty(0), [("a", np.empty(0))])
    assert (tmp_path / "empty.csv").read_bytes() == b"t,a\n"
    row = np.linspace(-3.0, 3.0, ARRAY_CELLS + 1)[None, :] ** 5
    assert csv_bytes(write_csv, row) == csv_bytes(per_cell_csv, row)


@pytest.mark.parametrize("bad", ["complex", "two-columns", "short", "scalar", "t-two-d"])
def test_write_csv_rejects_a_column_that_is_not_real_1d_of_len_t(bad, tmp_path):
    t = np.linspace(0.0, 1.0, 5)
    col = {"complex": t + 1j, "two-columns": np.ones((5, 2)), "short": np.zeros(4),
           "scalar": np.float64(1.0), "t-two-d": t}[bad]
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="'t'" if bad == "t-two-d" else "'bad'"):
        write_csv(path, t[:, None] if bad == "t-two-d" else t, [("ok", t), ("bad", col)])
    assert not path.exists()


def test_csv_roundtrip_full_precision(tmp_path):
    # the shipped test grid, then the dense-output traffic: a 4001-point
    # closed-form run of each JC model with every output, through the arrays
    dense = {"t_end": 1000.0, "n_steps": 4001}
    mirror = {"g11": 0.01, "g22": 0.0098, "g12": 0.0075, "k_mirror": 0.05, "n_exc": 1}
    configs = [
        base_config(),
        base_config(grid=dense, outputs=list(OUTPUTS), engine="closed-form",
                    params={"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "g12": 0.01}),
        base_config(model="jc-mirror", grid=dense, outputs=list(OUTPUTS), engine="closed-form",
                    params={"omega0": 1.0, "eps": 0.1, **mirror}),
        base_config(model="jc-two-bath", grid=dense, outputs=list(OUTPUTS), engine="closed-form",
                    params={"omega0": 1.0, "eps": 0.1, "g11": 0.0101, "g22": 0.0196, "n_exc": 1}),
    ]
    for raw in configs:
        cfg = parse_config(json.dumps(raw))
        states = simulate_config(cfg)
        cols = observable_columns(cfg, states)
        grid = cfg.grid.times()
        path = tmp_path / "rt.csv"
        write_csv(path, grid, cols)
        if len(grid) == 4001:
            assert len(grid) * (len(cols) + 1) >= ARRAY_CELLS
            per_cell_csv(tmp_path / "ref.csv", grid, cols)
            assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), raw["model"]
        header, data = read_csv(path)
        assert header[0] == "t"
        np.testing.assert_array_equal(data[:, 0], grid)
        for j, (name, col) in enumerate(cols):
            assert header[j + 1] == name
            np.testing.assert_array_equal(data[:, j + 1], col)


def test_x_state_concurrence_matches_the_spin_flip_route_on_shipped_series():
    # every shipped series is an X state, so the closed form is what it ships;
    # the eigenvalue route agrees to within its sqrt(eps) noise
    off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
    for name, cfg in shipped_runs():
        states = simulate_config(cfg)
        rho4 = two_qubit_projection(np.array([s.matrix for s in states]), jc_space(cfg.params))
        assert not np.any(rho4[..., off_x]), name
        gap = np.abs(x_state_concurrence(rho4) - wootters_concurrence(rho4))
        assert np.max(gap) <= 1e-7, name


def test_hermitian_parts_by_halving_move_no_csv_byte(monkeypatch, tmp_path):
    # halving and the complex division differ in the sign of some zero parts
    # (tests/test_core.py): no column of any shipped config may read that sign
    import cobath.core

    calls = []

    def division(m):
        calls.append(len(m))
        return hermitian_parts_by_division(m)

    for name, cfg in shipped_runs():
        outputs = tuple(o for o in OUTPUTS if o != "concurrence" or cfg.params.n_exc == 1)
        cfg = dataclasses.replace(cfg, outputs=outputs)
        grid = cfg.grid.times()
        write_csv(tmp_path / "half.csv", grid, observable_columns(cfg, simulate_config(cfg)))
        del calls[:]
        with monkeypatch.context() as patch:
            patch.setattr(cobath.core, "_hermitian_parts", division)
            write_csv(tmp_path / "div.csv", grid, observable_columns(cfg, simulate_config(cfg)))
        assert calls, name
        assert (tmp_path / "half.csv").read_bytes() == (tmp_path / "div.csv").read_bytes(), name


# ----------------------------------------------------------------------- svg

def test_emit_svg_matches_the_per_point_writer():
    # the reference formats "%.3f,%.3f" at every point of every curve
    rng = np.random.default_rng(16)
    t = np.linspace(0.0, 1000.0, 4001)
    dense = [(f"c{k}", np.cos(t / (40.0 + k)) * np.exp(-t / 700.0) + 1e-3 * rng.normal(size=t.size))
             for k in range(15)]
    split = np.sin(t / 30.0)
    split[[5, 6, 900, 2000, 2001, 2002, 4000]] = [np.nan, np.inf, -np.inf, np.nan, np.nan, np.inf, np.nan]
    isolated = np.full(t.size, np.nan)
    isolated[[0, 2, 3, 1500, 3999]] = [0.1, -0.2, 0.3, -0.0, 0.5]  # circles and a run of two
    t_nan = t.copy()
    t_nan[7] = np.nan
    cases = [
        (t, dense),
        (t, [("split", split), ("isolated", isolated), ("flat", np.full(t.size, 0.25))]),
        (t, [("flat", np.full(t.size, -0.0))]),
        (t_nan, [("x nan", np.cos(t))]),
        (np.linspace(-5.0, 5.0, 11), [("y", np.linspace(-1.0, 1.0, 11))]),
        (np.arange(5.0), [("y", np.array([0.0, 1.0, np.nan, 0.5, np.inf]))]),
        (np.array([3.0]), [("one", np.array([0.5]))]),
    ]
    circles = 0
    for t_k, curves in cases:
        svg = emit_svg(t_k, curves, title="a & b", xlabel="t", ylabel="y")
        assert svg == reference_emit_svg(t_k, curves, title="a & b", xlabel="t", ylabel="y")
        circles += svg.count("<circle")
    assert circles == 5



def test_thousandths_round_as_float_formatting():
    from cobath.svgplot import _thousandths

    rng = np.random.default_rng(19)
    below = np.nextafter(999.9995, 0.0)
    values = np.concatenate([
        rng.uniform(0.0, 999.9995, 100_000),
        rng.uniform(0.0, 1.0, 20_000),
        np.arange(0.0, 8_000_000.0, 61.0) / 8000.0,
        (2.0 * np.arange(8000) + 1.0) / 16.0,  # odd sixteenths: exact ties
        below - 1e-13 * np.arange(1000),
        [0.0, 5e-324, 1e-300, 0.0005, np.nextafter(0.0005, 1.0), np.nextafter(0.0005, 0.0),
         0.0625, 0.1875, 999.9375, below],
    ])
    values = values[values < 999.9995]
    k = _thousandths(values)
    got = [f"{q // 1000}.{q % 1000:03d}" for q in k.tolist()]
    assert got == ["%.3f" % v for v in values.tolist()]
    assert "%.3f" % below == "999.999" and "%.3f" % 999.9995 == "1000.000"
    for outside in (999.9995, 1000.0, -1e-300, -0.0, np.nan, np.inf, -np.inf):
        assert _thousandths(np.array([1.0, outside])) is None, outside
    assert _thousandths(np.array([0.0])).tolist() == [0]


def test_emit_svg_matches_the_per_point_writer_off_the_fast_path():
    rng = np.random.default_rng(19)
    t = np.linspace(0.0, 10.0, 400)
    shuffled = rng.permutation(t)
    back = t.copy()
    back[[50, 51, 300]] = [-20.0, 12.0, 11.0]  # drawn left and right of the plot
    t_nan = t.copy()
    t_nan[[0, 100, 101]] = [0.0, np.nan, np.nan]
    isolated = np.full(t.size, np.nan)
    isolated[[1, 3, 4, 200, 399]] = [0.2, -0.1, 0.4, 0.0, 1.5]
    curves = [("cos", np.cos(t)), ("isolated", isolated)]
    cases = [(t, curves), (shuffled, curves), (back, curves), (t_nan, curves),
             (t[::-1], curves), (np.full(t.size, 2.0), curves)]
    for t_k, c in cases:
        svg = emit_svg(t_k, c, title="t", ylabel="y")
        assert svg == reference_emit_svg(t_k, c, title="t", ylabel="y")
        assert svg.count("<circle") == 3


def test_svg_rejects_a_span_that_overflows():
    t = np.array([0.0, 1.0])
    for t_k, y, axis in (
        (t, np.array([-1e308, 1e308]), "y axis span [-1e+308, 1e+308]"),
        (t, np.array([0.0, 1.75e308]), "y axis span [-8.75e+306, inf]"),  # once padded
        (np.array([-1e308, 1e308]), np.array([0.0, 1.0]), "t axis span [-1e+308, 1e+308]"),
        (np.array([np.nan, 1.0]), np.array([0.0, 1.0]), "t axis span [nan, 1.0]"),
    ):
        with pytest.raises(ValueError, match=re.escape(axis + " is not finite")):
            emit_svg(t_k, [("y", y)])


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


def test_svg_range_below_float_resolution_terminates():
    # a range a few ulps wide used to stall the tick loop (v += step == v)
    code = (
        "import numpy as np\n"
        "from cobath.svgplot import emit_svg\n"
        "ulps = np.array([1.0, 1.0000000000000002])\n"
        "for y in (ulps, np.ones(2)):\n"
        "    print(emit_svg(ulps, [('y', y)]).count('text-anchor=\"end\"'))\n"
    )
    r = run_python("-c", code, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["3", "3"]  # the y axis is ticked like a flat curve's


def test_cli_trace_only_plot_terminates(tmp_path):
    # the closed-form trace is 1.0 or 1.0000000000000002 at every point
    cfg = base_config(model="jc-mirror", engine="closed-form", outputs=["trace"])
    cfg["params"]["k_mirror"] = 0.05
    cfg_path = tmp_path / "trace.json"
    cfg_path.write_text(json.dumps(cfg))
    r = run_cli("simulate", "--config", str(cfg_path), "--out", str(tmp_path), timeout=60)
    assert r.returncode == 0, r.stderr
    header, data = read_csv(tmp_path / "trace.csv")
    assert len(set(data[header.index("trace")].tolist())) > 1
    r = run_cli("plot", str(tmp_path / "trace.csv"), "--out", str(tmp_path / "plots"), timeout=60)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "plots" / "trace.svg").read_bytes() == (tmp_path / "trace.svg").read_bytes()


def test_svg_curve_flat_to_roundoff_is_horizontal_line(tmp_path):
    # the jc-mirror closed-form trace is 1.0 up to an ulp either side; the
    # y range was that ulp wide and the curve a full-height zigzag
    cfg = base_config(model="jc-mirror", engine="closed-form", outputs=["trace"])
    cfg["params"]["k_mirror"] = 0.05
    svg_path = run_to_files(parse_config(json.dumps(cfg)), tmp_path, "trace", fmt="both")[1]
    header, data = read_csv(tmp_path / "trace.csv")
    assert len(set(data[:, header.index("trace")].tolist())) > 1
    poly = [ln for ln in svg_path.read_text().splitlines() if "polyline" in ln]
    assert len(poly) == 1
    ys = {pt.split(",")[1] for pt in poly[0].split('points="')[1].split('"')[0].split()}
    assert len(ys) == 1


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


def test_cli_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


def test_cli_calls_in_one_process_share_the_parser_without_leaking(tmp_path, capsys):
    # an option given to one call must not reach the next: each call's
    # artefacts are byte for byte those of the same call in its own process
    mc = tmp_path / "mc.json"
    mc.write_text(
        json.dumps(
            base_config(
                engine="mcwf",
                mcwf={"n_traj": 40, "seed": 2024},
                outputs=["population", "trace"],
                grid={"t_end": 60.0, "n_steps": 31},
            )
        )
    )
    run = tmp_path / "run.json"
    run.write_text(json.dumps(base_config(outputs=["population", "concurrence"])))
    calls = {
        "seeded": ["trajectories", "--config", str(mc), "--seed", "7", "--format", "csv"],
        "closed_form": ["simulate", "--config", str(run), "--engine", "closed-form"]
        + ["--format", "svg"],
        "defaults": ["simulate", "--config", str(run)],
        "config_seed": ["trajectories", "--config", str(mc)],
    }
    for name, args in calls.items():
        assert main([*args, "--out", str(tmp_path / "shared" / name)]) == 0
    for name, args in calls.items():
        r = run_cli(*args, "--out", str(tmp_path / "lone" / name), timeout=120)
        assert r.returncode == 0, r.stderr

    def artefacts(side, name):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / side / name).iterdir())}

    shared = {name: artefacts("shared", name) for name in calls}
    assert shared == {name: artefacts("lone", name) for name in calls}
    assert {name: sorted(files) for name, files in shared.items()} == {
        "seeded": ["mc.csv"],
        "closed_form": ["run.svg"],
        "defaults": ["run.csv", "run.svg"],
        "config_seed": ["mc.csv", "mc.svg"],
    }
    assert shared["seeded"]["mc.csv"] != shared["config_seed"]["mc.csv"]


@pytest.mark.parametrize("command", ["simulate", "plot"])
def test_cli_file_that_is_not_utf8_is_config_error(command, tmp_path, capsys):
    # UnicodeDecodeError is a ValueError; it must not read as a numerical failure
    if command == "simulate":
        src = tmp_path / "run.json"
        src.write_bytes(b'{"model": "jc-common\xff"}\n')
        args = ["simulate", "--config", str(src)]
    else:
        src = tmp_path / "run.csv"
        src.write_bytes(b"t,a\n0.0,1.0\n1.0,\xff\n")
        args = ["plot", str(src)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(src) in err
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["simulate", "plot"])
def test_cli_input_file_that_cannot_be_read_is_config_error(command, kind, tmp_path, capsys):
    # an input that cannot be read is the caller's fault, not an i/o failure
    src = tmp_path / ("run.json" if command == "simulate" else "run.csv")
    if kind == "directory":
        src.mkdir()
    args = ["simulate", "--config", str(src)] if command == "simulate" else ["plot", str(src)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read ") and str(src) in err
    assert not (tmp_path / "out").exists()


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
    ("flat_beyond_resolution", "t,a\n0.0,1e16\n1.0,1e16\n", [], "below float resolution"),
    ("t_not_finite", "t,a\n0.0,1.0\nnan,0.0\n2.0,0.5\n", [], "column t is not finite and strictly"),
    ("t_not_increasing", "t,a\n0.0,1.0\n5.0,0.0\n1.0,0.5\n", [], "column t is not finite and strictly"),
    ("span_overflows", "t,a\n0.0,-1e308\n1.0,1e308\n", [], "y axis span [-1e+308, 1e+308] is not finite"),
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


def test_cli_rejects_a_tensor_frequency_where_no_coupling_acts(tmp_path, capsys):
    # the config parser names the frequency by its path before the model is built
    cfg = _custom_tensor_config()
    cfg["params"]["tensor"]["frequencies"] = [2.0]
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert (
        "params.tensor.frequencies[0]: no coupling component at frequency 2.0 "
        "(the channels act at omega0 = 1.0)" in capsys.readouterr().err
    )


def test_cli_rejects_omega0_whose_top_level_overflows(tmp_path, capsys):
    # omega0 (n_max + 1) overflows: a config error, not a numerical failure
    cfg = base_config()
    cfg["params"]["omega0"] = 1e308
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "params.omega0: must be a finite number" in capsys.readouterr().err


def _repeat_key(cfg, path, value):
    """``cfg`` as JSON text in which the key at ``path`` appears a second time, with ``value``."""
    *parents, key = path.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    first = f"{json.dumps(key)}: {json.dumps(node[key])}"
    text = json.dumps(cfg)
    assert text.count(first) == 1
    return text.replace(first, f"{first}, {json.dumps(key)}: {json.dumps(value)}")


REPEATED = [
    ("engine", "hierarchy"),
    ("params.g12", 0.0),
    ("grid.n_steps", 11),
    ("mcwf.seed", 2),
    ("sweep.param", "g11"),
    ("params.tensor.frequencies", [2.0]),
]


@pytest.mark.parametrize("path, value", REPEATED, ids=[path for path, _ in REPEATED])
def test_cli_rejects_a_repeated_key(path, value, tmp_path, capsys):
    # json.loads keeps the last value of a repeated key: a second params.g12
    # of 0.0 would turn the shared-bath run into an uncorrelated one unseen
    cfg = _custom_tensor_config() if path.startswith("params.tensor") else base_config()
    command = "simulate"
    if path.startswith("mcwf"):
        cfg.update(engine="mcwf", mcwf={"n_traj": 20, "seed": 1})
        command = "trajectories"
    if path.startswith("sweep"):
        cfg["sweep"] = {"param": "g12", "values": [0.0, 0.005]}
        command = "sweep"
    text = _repeat_key(cfg, path, value)
    parse_config(json.dumps(cfg))  # valid without the repeat
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: duplicate key$"):
        parse_config(text)
    cfg_path = tmp_path / "repeated.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{path}: duplicate key" in capsys.readouterr().err
    assert not out.exists()


ENGINE_CONFIGS = {
    "integrate": {},
    "hierarchy": {"engine": "hierarchy"},
    "closed-form": {"engine": "closed-form"},
    "mcwf": {"engine": "mcwf", "mcwf": {"n_traj": 20, "seed": 1}},
}


@pytest.mark.parametrize("t_end, n_steps", [(1e-310, 3), (5e-324, 2), (5e-324, 3)])
@pytest.mark.parametrize("engine", ENGINE_CONFIGS)
def test_cli_rejects_a_subnormal_grid(engine, t_end, n_steps, tmp_path, capsys):
    # the float resolution of these grids is 0, or linspace repeats a point:
    # a config error at parse time, before any engine runs or any file is written
    cfg = base_config(outputs=["population"], grid={"t_end": t_end, "n_steps": n_steps},
                      **ENGINE_CONFIGS[engine])
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.t_end: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("engine", ENGINE_CONFIGS)
def test_cli_runs_the_smallest_normal_grid(engine, tmp_path):
    cfg = base_config(outputs=["population"], grid={"t_end": 2e-308, "n_steps": 3},
                      **ENGINE_CONFIGS[engine])
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    header, data = read_csv(tmp_path / "tiny.csv")
    assert data[:, 0].tolist() == [0.0, 1e-308, 2e-308]


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


BAD_SWEEP_POINTS = [
    ("omega0", [1.0, 0.0]),
    ("g12", [0.005, 0.011]),  # sqrt(g11 g22) = 0.01
]


@pytest.mark.parametrize("param, values", BAD_SWEEP_POINTS, ids=["omega0", "g12"])
def test_cli_sweep_checks_every_point_before_running(param, values, tmp_path, capsys):
    # the good first value must not run and write its CSV before the bad one fails
    cfg = base_config(outputs=["population"], sweep={"param": param, "values": values})
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = ["sweep", "--config", str(cfg_path), "--out", str(out), "--format", "csv"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"sweep.values[1]: params.{param} = {values[1]!r}" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("values, dup", [([0.005, 0.005, 0.0050], 1), ([0.0, 0.01, -0.0], 2)])
def test_cli_sweep_rejects_duplicate_values(values, dup, tmp_path, capsys):
    # equal as floats: each run would rewrite the same <base>_g12_<value> files
    cfg = base_config(outputs=["population"], sweep={"param": "g12", "values": values})
    cfg_path = tmp_path / "dup.json"
    cfg_path.write_text(json.dumps(cfg))
    args = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"sweep.values[{dup}]: duplicate of sweep.values[0]" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_trajectories_checks_the_engine_after_overrides(tmp_path, capsys):
    # the engine check used to run before --engine was applied
    args = ["trajectories", "--config", str(CONFIGS / "mcwf_dfs.json"), "--out", str(tmp_path),
            "--engine", "closed-form"]
    assert main(args) == 2
    assert "trajectories: engine must be mcwf, not 'closed-form'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("where", ["params", "sweep"])
def test_cli_rejects_omega0_below_frequency_resolution(where, tmp_path, capsys):
    # at or below FREQ_MATCH_TOL the split yields no tensor frequency at all
    cfg = base_config(outputs=["population"])
    if where == "params":
        cfg["params"]["omega0"] = 1e-10
        command, path = "simulate", "params.omega0"
    else:
        cfg["sweep"] = {"param": "omega0", "values": [1.0, 1e-10]}
        command, path = "sweep", "sweep.values[1]: params.omega0 = 1e-10"
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    args = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert path in err and "must be > 0 (above the frequency resolution 1e-09)" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_cli_rejects_n_max_below_guard_levels(tmp_path, capsys):
    cfg = base_config(outputs=["population"])
    cfg["params"]["n_max"] = 2
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "params.n_max: must be at least n_exc + 2 = 3" in err
    assert not any(tmp_path.glob("*.csv"))


COLD_PATH = """
import json, sys
seen = {}
import cobath
seen["import cobath"] = "scipy" in sys.modules
from cobath.cli import main
seen["import cobath.cli"] = "scipy" in sys.modules
cfg, bad, out = sys.argv[1:]
runs = {
    "closed-form": ["simulate", "--config", cfg, "--out", out, "--engine", "closed-form"],
    "plot": ["plot", out + "/run.csv", "--out", out + "/plots"],
    "config error": ["simulate", "--config", bad, "--out", out],
    "integrate": ["simulate", "--config", cfg, "--out", out],
}
for name, args in runs.items():
    seen[name] = [main(args), "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_scipy_is_imported_at_the_first_matrix_exponential(tmp_path):
    # a subprocess, since this test process has scipy loaded already
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(base_config(outputs=["population"])))
    bad = base_config()
    bad["params"]["g11"] = -1.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    r = run_python("-c", COLD_PATH, str(cfg_path), str(bad_path), str(tmp_path), timeout=120)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == {
        "import cobath": False,
        "import cobath.cli": False,
        "closed-form": [0, False],
        "plot": [0, False],
        "config error": [2, False],
        "integrate": [0, True],
    }


SETUP_PATH = """
import sys
from cobath.config import load_config
from cobath.runner import build_model
build_model(load_config(sys.argv[1]))
print(sorted(m for m in ("scipy", "numpy.ma", "cobath.csvcells") if m in sys.modules))
"""


def test_model_setup_loads_neither_scipy_nor_numpy_ma():
    # the set-up path (import, load_config, build_model) a fresh process
    # times: numpy.ma alone costs ~15 ms on its first import; the CSV cell
    # formatter and its tables are loaded at the first large table written
    cfg = CONFIGS / "jc_mirror_many_quanta.json"
    r = run_python("-c", SETUP_PATH, str(cfg), timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"


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
