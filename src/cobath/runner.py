"""Drive simulations from a RunConfig and emit CSV / SVG artifacts.

Column layout is fixed: ``t`` first, then the columns of each requested
observable in declared order.  Each cell's bytes are Python's ``repr`` of
the float (shortest round-trip form), so re-parsing an emitted CSV
reproduces the in-memory series exactly and reruns are byte-identical.  A
large table gets those bytes computed as arrays (``csvcells``), with
``repr`` itself for the cells the arrays cannot decide.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, sweep_points
from .core import StateSeries
from .jc import (
    build_jc,
    closed_form_states,
    conditional_state,
    excitation_number,
    excited_population,
    ground_population,
    jc_initial,
    jc_initial_ket,
    jc_space,
    sector_entries,
    two_qubit_projection,
    x_state_concurrence,
)
from .master_equation import MasterEquation, integrate
from .svgplot import emit_svg
from .trajectories import hierarchy_sector, mcwf_unravel

__all__ = [
    "build_model",
    "simulate_config",
    "observable_columns",
    "write_csv",
    "read_csv",
    "run_to_files",
    "sweep_to_files",
]


# a CSV of at least this many cells has its cells formatted as whole arrays
# (``csvcells``), a smaller one by one ``repr`` per cell.  On a 2-vCPU x86-64
# host a fresh process, whose first array call also imports ``csvcells`` and
# builds its tables, breaks even between 6,000 cells (arrays 0.2 ms slower)
# and 9,000 (0.8 ms faster).  Later calls gain from about 500 cells, but on
# tables of 1,608 and 2,004 cells the gain was inside run spread and the
# array path raised the peak RSS by 0.7 MB
ARRAY_CELLS = 8000


def build_model(cfg: RunConfig) -> MasterEquation:
    return build_jc(cfg.params, tensor=cfg.tensor)


def simulate_config(cfg: RunConfig) -> StateSeries:
    """The checked state series of a config, from the selected engine."""
    p, grid = cfg.params, cfg.grid.times()
    if cfg.engine == "closed-form":
        return closed_form_states(p, grid, cfg.initial)
    me = build_model(cfg)
    if cfg.engine in ("integrate", "hierarchy"):
        rho0 = jc_initial(p, cfg.initial)
        if cfg.engine == "hierarchy":
            # the blocks are the sectors of the master-equation state, and
            # their sum is that state: check the split holds, then solve once
            hierarchy_sector(me, rho0, excitation_number(me.space))
        return integrate(me, rho0, grid)
    if cfg.engine == "mcwf":
        ket = jc_initial_ket(p, cfg.initial)
        res = mcwf_unravel(me, ket, grid, n_traj=cfg.mcwf.n_traj, seed=cfg.mcwf.seed)
        return res.states(me.space)
    raise ConfigError(f"engine: unhandled engine {cfg.engine!r}")


def observable_columns(
    cfg: RunConfig, states: StateSeries
) -> list[tuple[str, np.ndarray]]:
    """Expand the requested observables into named columns, each over the whole stack."""
    p = cfg.params
    space = jc_space(p)
    rho = states.matrices
    cols: list[tuple[str, np.ndarray]] = []
    for name in cfg.outputs:
        if name == "population":
            cols.append(("population", excited_population(rho, space)))
        elif name == "trace":
            cols.append(("trace", np.trace(rho, axis1=1, axis2=2).real))
        elif name == "purity":
            cols.append(("purity", np.trace(rho @ rho, axis1=1, axis2=2).real))
        elif name == "concurrence":
            envelope = x_state_concurrence(two_qubit_projection(rho, space))
            conditional = conditional_state(rho, space, 1).concurrence
            cols += [("concurrence", envelope), ("concurrence_conditional", conditional)]
        elif name == "blocks":
            cols.append(("block0_p00", ground_population(rho, space)))
            for i in range(1, p.n_exc + 1):
                r11, r12, r22 = sector_entries(rho, space, i)
                cols += [(f"block{i}_p11", r11), (f"block{i}_re_p12", r12.real),
                         (f"block{i}_im_p12", r12.imag), (f"block{i}_p22", r22)]
        elif name == "conditional-state":
            c = conditional_state(rho, space, p.n_exc)
            cols += [("cond_p11", c.p11), ("cond_re_p12", c.re_p12),
                     ("cond_im_p12", c.im_p12), ("cond_p22", c.p22)]
        else:
            raise ConfigError(f"outputs: unhandled observable {name!r}")
    return cols


def _csv_column(name: str, values, n: int | None) -> np.ndarray:
    """One CSV column as floats; ValueError unless it is real, 1-D and of n values."""
    col = np.asarray(values)
    if col.ndim != 1 or np.iscomplexobj(col) or n not in (None, len(col)):
        want = "a real 1-D array" + ("" if n is None else f" of {n} values, as t")
        raise ValueError(f"CSV column {name!r} is {col.dtype} of shape {col.shape}, not {want}")
    return col.astype(float)


def write_csv(path: Path, t: np.ndarray, cols: list[tuple[str, np.ndarray]]):
    """Write ``t`` and the named columns as CSV, each cell ``repr(float(v))``.

    A table of at least ``ARRAY_CELLS`` cells is formatted as whole arrays
    (``csvcells``), a smaller one cell by cell; the bytes are the same.  A
    column that is not 1-D, real and as long as ``t`` is a ValueError
    naming it, raised before any byte is written.
    """
    t = _csv_column("t", t, None)
    values = [t, *(_csv_column(name, col, len(t)) for name, col in cols)]
    head = ("t," + ",".join(name for name, _ in cols) + "\n").encode("utf-8")
    if len(t) * len(values) >= ARRAY_CELLS:
        from .csvcells import rows_bytes

        body = rows_bytes(np.column_stack(values))
    else:
        # Python floats, so integer columns print as 1.0
        rows = zip(*(v.tolist() for v in values))
        body = "".join(",".join(map(repr, row)) + "\n" for row in rows).encode("ascii")
    path.write_bytes(head + body)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Parse an emitted CSV back into (header, columns-as-rows array).

    A file that cannot be read or is not UTF-8, an empty file, a row not
    as wide as the header or a cell that is not a number raises
    ConfigError naming the file (and the line), as ``load_config`` does
    for a config.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [(k, ln) for k, ln in enumerate(text.split("\n"), start=1) if ln]
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = lines[0][1].split(",")
    rows = []
    for k, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}, line {k}: {len(cells)} cells, header has {len(header)}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ConfigError(f"{path}, line {k}: {exc}") from exc
    return header, np.array(rows)


def _emit(
    cfg: RunConfig,
    out_dir: Path,
    base: str,
    fmt: str,
) -> list[Path]:
    grid = cfg.grid.times()
    states = simulate_config(cfg)
    cols = observable_columns(cfg, states)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("csv", "both"):
        csv_path = out_dir / f"{base}.csv"
        write_csv(csv_path, grid, cols)
        written.append(csv_path)
    if fmt in ("svg", "both"):
        svg_path = out_dir / f"{base}.svg"
        svg_path.write_text(
            emit_svg(grid, cols, title=base, xlabel="t"),
            encoding="utf-8",
            newline="\n",
        )
        written.append(svg_path)
    return written


def run_to_files(cfg: RunConfig, out_dir: Path, base: str, fmt: str = "both") -> list[Path]:
    """Single simulation; returns the artifact paths."""
    if cfg.sweep is not None:
        raise ConfigError("sweep: config declares a sweep; use the sweep subcommand")
    return _emit(cfg, out_dir, base, fmt)


def sweep_to_files(cfg: RunConfig, out_dir: Path, base: str, fmt: str = "both") -> list[Path]:
    """One run per sweep value; file names carry a ``_<param>_<value>`` suffix."""
    if cfg.sweep is None:
        raise ConfigError("sweep: config declares no sweep")
    written = []
    for value, point in sweep_points(cfg):
        written.extend(_emit(point, out_dir, f"{base}_{cfg.sweep.param}_{value!r}", fmt))
    return written
