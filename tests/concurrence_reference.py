"""Closed forms of the conditional one-excitation concurrence, as oracles.

The shipped value comes from ``cobath.jc.conditional_state`` (2 |r12| / w).
``block_concurrence_exact`` is the same formula on one block, checked
against the spin-flip route on ``conditional_two_qubit``; the
difference-of-roots ``block_concurrence_variant`` disagrees with both and
is kept only for the discrepancy report of acceptance criterion 09.
"""

import math

import numpy as np

from cobath.jc import CONDITIONAL_FLOOR


def _weight(r11: float, r22: float) -> float:
    tr = r11 + r22
    if tr <= CONDITIONAL_FLOOR:
        raise ValueError("conditional block has vanishing weight")
    return tr


def block_concurrence_exact(r11: float, r12: complex, r22: float) -> float:
    """Concurrence 2 |r12| / (r11 + r22) of the normalized conditional block
    on {|0,+>, |1,->}, where the spin-flip construction collapses to it."""
    return float(2.0 * abs(r12) / _weight(r11, r22))


def block_concurrence_variant(r11: float, r12: complex, r22: float) -> float:
    """A difference of two square roots built from the block entries.  It
    does NOT agree with the spin-flip value (docs/concurrence_discrepancy.md)."""
    tr = _weight(r11, r22)
    core = 2.0 * (r11 * r22 + abs(r12) ** 2)
    cross = 4.0 * r22 * abs(r12)
    hi = max(core + cross, 0.0) / tr
    lo = max(core - cross, 0.0) / tr
    return float(math.sqrt(hi) - math.sqrt(lo))


def conditional_two_qubit(r11: float, r12: complex, r22: float) -> np.ndarray:
    """The normalized conditional block as a 4x4 two-qubit state in the basis
    of ``two_qubit_projection``, |+,0>, |+,1>, |-,0>, |-,1>: the excitation
    lives on |+,0> (index 0) and |-,1> (index 3)."""
    tr = _weight(r11, r22)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = r11 / tr
    rho[0, 3] = r12 / tr
    rho[3, 0] = np.conj(r12) / tr
    rho[3, 3] = r22 / tr
    return rho
