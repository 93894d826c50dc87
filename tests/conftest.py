import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate_model(me, u):
    """The same master equation in the basis u: every matrix becomes u X u^dag.

    The physics is unchanged, but no entry is an exact zero any more, so
    the invariant support of any state is the whole space.
    """
    from cobath.core import Operator
    from cobath.master_equation import EigenOperator, MasterEquation

    def rot(op):
        return Operator(op.space, u @ op.matrix @ u.conj().T, label=op.label)

    fams = tuple(
        tuple(EigenOperator(eo.frequency, rot(eo.op), eo.source_index) for eo in fam)
        for fam in me.couplings
    )
    return MasterEquation(rot(me.H_S), fams, me.tensor)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_runs() -> list:
    """(name, config) of every shipped config under its own engine, one per
    sweep point, plus each integrate or hierarchy run under the closed form."""
    import dataclasses

    from cobath.config import load_config, sweep_points

    runs = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(str(path))
        for value, point in sweep_points(cfg) if cfg.sweep else [(None, cfg)]:
            name = path.stem if value is None else f"{path.stem}[{value!r}]"
            runs.append((name, point))
            deterministic = point.engine in ("integrate", "hierarchy")
            if deterministic and point.model.startswith("jc-") and point.params.n_exc == 1:
                runs.append((f"{name}[closed-form]", dataclasses.replace(point, engine="closed-form")))
    return runs


def hermitian_parts_by_division(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 as ``check_states`` built it before: a complex division by 2."""
    h = np.conj(m.swapaxes(-1, -2), order="C")
    h += m
    h /= 2.0
    return h
