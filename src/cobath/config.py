"""Run-configuration parsing: strict JSON tree, path-qualified errors.

Unknown keys are rejected everywhere.  Complex-valued entries are written
as a plain number (real) or a two-element ``[re, im]`` list.  See
docs/config.md for the full schema and one annotated example per model.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .jc import JCParams
from .master_equation import FREQ_MATCH_TOL, SpectralTensor, apply_t0_filter, time_grid

__all__ = [
    "ConfigError",
    "GridSpec",
    "McwfSpec",
    "SweepSpec",
    "RunConfig",
    "parse_config",
    "check_engine",
    "sweep_points",
    "load_config",
]

MODELS = ("jc-common", "jc-two-bath", "jc-mirror", "custom-tensor")
ENGINES = ("integrate", "hierarchy", "mcwf", "closed-form")
OUTPUTS = ("population", "concurrence", "trace", "purity", "blocks", "conditional-state")
INITIALS = ("atom", "photon", "mix")
SWEEPABLE = ("omega0", "eps", "g11", "g22", "g12", "k_mirror")


class ConfigError(ValueError):
    """Schema or consistency violation; the message names the offending path."""


@dataclass(frozen=True)
class GridSpec:
    t_end: float
    n_steps: int

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps)


@dataclass(frozen=True)
class McwfSpec:
    n_traj: int
    seed: int


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    model: str
    params: JCParams
    grid: GridSpec
    outputs: tuple[str, ...]
    engine: str
    initial: str
    mcwf: McwfSpec | None = None
    sweep: SweepSpec | None = None
    tensor: SpectralTensor | None = None  # custom-tensor model only


def _require_keys(obj: dict, allowed: set[str], required: set[str], path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}{key}: unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}{key}: missing required key")


def _finite(value: int | float, path: str) -> float:
    # json reads NaN and Infinity as numbers
    try:
        x = float(value)
    except OverflowError:  # an integer beyond float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: must be a finite number")
    return x


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    return _finite(value, path)


def _complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_finite(value, path))
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(_finite(value[0], f"{path}[0]"), _finite(value[1], f"{path}[1]"))
    raise ConfigError(f"{path}: expected a number or [re, im] pair")


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return int(value)


def _parse_tensor(obj, path: str) -> SpectralTensor:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _require_keys(obj, {"frequencies", "gamma"}, {"frequencies", "gamma"}, f"{path}.")
    freqs = obj["frequencies"]
    mats = obj["gamma"]
    if not isinstance(freqs, list) or not freqs:
        raise ConfigError(f"{path}.frequencies: expected a non-empty list")
    if not isinstance(mats, list) or len(mats) != len(freqs):
        raise ConfigError(f"{path}.gamma: need one matrix per frequency")
    gammas = []
    for i, m in enumerate(mats):
        if not isinstance(m, list) or any(not isinstance(row, list) for row in m):
            raise ConfigError(f"{path}.gamma[{i}]: expected a nested list matrix")
        g = np.array(
            [[_complex(v, f"{path}.gamma[{i}][{r}][{c}]") for c, v in enumerate(row)]
             for r, row in enumerate(m)],
            dtype=complex,
        )
        gammas.append(g)
    try:
        tensor = SpectralTensor(
            tuple(_real(w, f"{path}.frequencies[{i}]") for i, w in enumerate(freqs)),
            tuple(gammas),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # runs are zero-temperature: absorption entries cannot be evolved
    return apply_t0_filter(tensor)


# params keys admitted per model
_PARAM_KEYS = {
    "jc-common": {"omega0", "eps", "g11", "g22", "g12", "n_exc", "n_max"},
    "jc-two-bath": {"omega0", "eps", "g11", "g22", "g12", "n_exc", "n_max"},
    "jc-mirror": {"omega0", "eps", "g11", "g22", "g12", "k_mirror", "n_exc", "n_max"},
    "custom-tensor": {"omega0", "eps", "n_exc", "n_max", "tensor"},
}
_PARAM_REQUIRED = {
    "jc-common": {"omega0", "eps", "g11", "g22"},
    "jc-two-bath": {"omega0", "eps", "g11", "g22"},
    "jc-mirror": {"omega0", "eps", "g11", "g22", "k_mirror"},
    "custom-tensor": {"omega0", "eps", "tensor"},
}


def _parse_params(model: str, obj, path: str) -> tuple[JCParams, SpectralTensor | None]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    _require_keys(obj, _PARAM_KEYS[model], _PARAM_REQUIRED[model], f"{path}.")

    omega0 = _real(obj["omega0"], f"{path}.omega0")
    eps = _complex(obj["eps"], f"{path}.eps")
    n_exc = _int(obj.get("n_exc", 1), f"{path}.n_exc")
    n_max = obj.get("n_max")
    if n_max is not None:
        n_max = _int(n_max, f"{path}.n_max")

    rates = {"g11": 0.0, "g22": 0.0}
    if model != "custom-tensor":
        rates["g11"] = _real(obj["g11"], f"{path}.g11")
        rates["g22"] = _real(obj["g22"], f"{path}.g22")
        rates["g12"] = _complex(obj.get("g12", 0.0), f"{path}.g12")
        if model == "jc-two-bath" and rates["g12"] != 0:
            raise ConfigError(f"{path}.g12: must be 0 for model jc-two-bath")
        rates["k_mirror"] = _real(obj.get("k_mirror", 0.0), f"{path}.k_mirror")
        if model != "jc-mirror" and rates["k_mirror"] != 0:
            raise ConfigError(f"{path}.k_mirror: only model jc-mirror takes mirror loss")
    try:
        # JCParams owns the bounds; each message reads "<field>: <rule>"
        params = JCParams(omega0=omega0, eps=eps, n_exc=n_exc, n_max=n_max, **rates)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc

    tensor = None
    if model == "custom-tensor":
        tensor = _parse_tensor(obj["tensor"], f"{path}.tensor")
        if tensor.n_channels != 2:
            raise ConfigError(
                f"{path}.tensor.gamma: need 2x2 matrices (channels: atom, mode)"
            )
        # the bare split puts every coupling component at +-omega0; a rate
        # anywhere else would act on no operator and silently vanish
        for i, w in enumerate(obj["tensor"]["frequencies"]):
            if w > FREQ_MATCH_TOL and abs(w - omega0) > FREQ_MATCH_TOL:
                raise ConfigError(
                    f"{path}.tensor.frequencies[{i}]: no coupling component at "
                    f"frequency {w!r} (the channels act at omega0 = {omega0!r})"
                )
    return params, tensor


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("top level: expected an object")
    _require_keys(
        obj,
        {"model", "params", "grid", "outputs", "engine", "initial", "mcwf", "sweep"},
        {"model", "params", "grid"},
        "",
    )

    model = obj["model"]
    if model not in MODELS:
        raise ConfigError(f"model: {model!r} is not one of {MODELS}")

    params, tensor = _parse_params(model, obj["params"], "params")

    grid_obj = obj["grid"]
    if not isinstance(grid_obj, dict):
        raise ConfigError("grid: expected an object")
    _require_keys(grid_obj, {"t_end", "n_steps"}, {"t_end", "n_steps"}, "grid.")
    t_end = _real(grid_obj["t_end"], "grid.t_end")
    n_steps = _int(grid_obj["n_steps"], "grid.n_steps")
    if t_end <= 0:
        raise ConfigError("grid.t_end: must be > 0")
    if n_steps < 2:
        raise ConfigError("grid.n_steps: must be >= 2")
    grid = GridSpec(t_end, n_steps)
    try:
        time_grid(grid.times())
    except ValueError as exc:
        raise ConfigError(f"grid.t_end: {t_end!r} with {n_steps} points: {exc}") from exc

    outputs = obj.get("outputs", ["population"])
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("outputs: expected a non-empty list")
    seen = set()
    for i, o in enumerate(outputs):
        if o not in OUTPUTS:
            raise ConfigError(f"outputs[{i}]: {o!r} is not one of {OUTPUTS}")
        if o in seen:
            raise ConfigError(f"outputs[{i}]: duplicate observable {o!r}")
        seen.add(o)

    engine = obj.get("engine", "integrate")
    if engine not in ENGINES:
        raise ConfigError(f"engine: {engine!r} is not one of {ENGINES}")

    initial = obj.get("initial", "atom")
    if initial not in INITIALS:
        raise ConfigError(f"initial: {initial!r} is not one of {INITIALS}")

    mcwf = None
    if engine == "mcwf":
        if "mcwf" not in obj:
            raise ConfigError("mcwf: required when engine is mcwf")
        if initial == "mix":
            raise ConfigError("initial: mcwf needs a pure initial state (atom or photon)")
        m = obj["mcwf"]
        if not isinstance(m, dict):
            raise ConfigError("mcwf: expected an object")
        _require_keys(m, {"n_traj", "seed"}, {"n_traj", "seed"}, "mcwf.")
        n_traj = _int(m["n_traj"], "mcwf.n_traj")
        seed = _int(m["seed"], "mcwf.seed")
        if n_traj < 1:
            raise ConfigError("mcwf.n_traj: must be >= 1")
        if seed < 0:
            raise ConfigError("mcwf.seed: must be >= 0")
        mcwf = McwfSpec(n_traj, seed)
    elif "mcwf" in obj:
        raise ConfigError("mcwf: only valid when engine is mcwf")

    sweep = None
    if "sweep" in obj:
        s = obj["sweep"]
        if not isinstance(s, dict):
            raise ConfigError("sweep: expected an object")
        _require_keys(s, {"param", "values"}, {"param", "values"}, "sweep.")
        if model == "custom-tensor":
            raise ConfigError("sweep: not available for model custom-tensor")
        if s["param"] not in SWEEPABLE:
            raise ConfigError(f"sweep.param: {s['param']!r} is not one of {SWEEPABLE}")
        if s["param"] == "g12" and model == "jc-two-bath":
            raise ConfigError("sweep.param: g12 is fixed to 0 for model jc-two-bath")
        if s["param"] == "k_mirror" and model != "jc-mirror":
            raise ConfigError("sweep.param: only model jc-mirror takes mirror loss")
        if not isinstance(s["values"], list) or not s["values"]:
            raise ConfigError("sweep.values: expected a non-empty list")
        values = tuple(_real(v, f"sweep.values[{i}]") for i, v in enumerate(s["values"]))
        for i, value in enumerate(values):
            first = values.index(value)  # float equality: 0.005 == 0.0050, 0.0 == -0.0
            if first < i:
                raise ConfigError(f"sweep.values[{i}]: duplicate of sweep.values[{first}]")
        sweep = SweepSpec(s["param"], values)

    for name in ("concurrence",):
        if name in seen and params.n_exc > 1:
            raise ConfigError(f"outputs: {name!r} needs params.n_exc <= 1 (two-qubit measure)")
    if "conditional-state" in seen and params.n_exc < 1:
        raise ConfigError("outputs: 'conditional-state' needs params.n_exc >= 1")

    cfg = RunConfig(
        model=model,
        params=params,
        grid=grid,
        outputs=tuple(outputs),
        engine=engine,
        initial=initial,
        mcwf=mcwf,
        sweep=sweep,
        tensor=tensor,
    )
    check_engine(cfg)
    return cfg


def sweep_points(cfg: RunConfig) -> list[tuple[float, RunConfig]]:
    """(value, single-run config) for each sweep value, in order.

    Every point is built before the list is returned, so a value the model
    cannot take raises ConfigError naming ``sweep.values[i]`` before any
    point has run.
    """
    points = []
    for i, value in enumerate(cfg.sweep.values):
        try:
            params = dataclasses.replace(cfg.params, **{cfg.sweep.param: value})
        except ValueError as exc:
            raise ConfigError(
                f"sweep.values[{i}]: params.{cfg.sweep.param} = {value!r}: {exc}"
            ) from exc
        points.append((value, dataclasses.replace(cfg, params=params, sweep=None)))
    return points


def check_engine(cfg: RunConfig):
    """Reject an engine the model cannot honour; also applied after ``--engine``."""
    if cfg.engine == "closed-form":
        if not cfg.model.startswith("jc-"):
            raise ConfigError("engine: closed-form requires a jc-* model")
        if cfg.params.n_exc != 1:
            raise ConfigError("engine: closed-form requires params.n_exc = 1")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
