"""Fixed-step classic 4th-order Runge-Kutta on the full d x d state.

The oracle that the library's exact propagation (one ``expm`` of the
generator on the state's invariant support) is tested against.  It steps
the master-equation ``rhs`` of ``hierarchy_reference`` (``shift`` 0, one
block), so it shares nothing with the library's path but the model's B and
term list.  Each grid interval is cut into max(1, ceil(span / max_step))
equal substeps.
"""

import math

import numpy as np

from cobath.core import DensityMatrix
from cobath.master_equation import MasterEquation
from hierarchy_reference import linear_system


def _rk4_span(rhs, y: np.ndarray, span: float, h_max: float) -> np.ndarray:
    n_sub = max(1, int(math.ceil(span / h_max)))
    h = span / n_sub
    for _ in range(n_sub):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def rk4_states(me: MasterEquation, rho0: DensityMatrix, t, max_step: float) -> np.ndarray:
    """rho(t_0), rho(t_1), ... as one ``(len(t), d, d)`` array: row 0 is
    ``rho0.matrix`` and each later row the RK4 state, with substeps of at
    most ``max_step`` (> 0) in every grid interval."""
    rhs = linear_system(me, 0)[0]
    y = rho0.matrix[None]
    out = [y[0]]
    for span in np.diff(np.asarray(t, dtype=float)):
        y = _rk4_span(rhs, y, float(span), max_step)
        out.append(y[0])
    return np.array(out)
