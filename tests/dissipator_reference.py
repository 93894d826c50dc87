"""The pair-sum dissipator, the Lamb-shift builder and no-jump propagation, as oracles.

``build_dissipator`` sums the channel terms of a ``MasterEquation`` pair
by pair, D(rho) = sum gamma_ab (A_b rho A_a^dag - 1/2 {A_a^dag A_b, rho});
it is the authority the library's generator (``linear_system``) and the
diagonalized jump operators are tested against.  ``build_lamb_shift``
assembles sum_w s_ab(w) A_a(w)^dag A_b(w) from given shift matrices s(w);
a model with the shift passes H_S + H_LS as its Hamiltonian.
"""

import numpy as np

from cobath.core import Operator
from cobath.master_equation import GAMMA_HERM_TOL, MasterEquation, _channel_terms, _pair_sum


def build_dissipator(me: MasterEquation):
    """The dissipator of ``me`` as a callable on raw state matrices.

    For any input the output is Hermiticity- and trace-preserving by
    construction (the anticommutator uses K = sum gamma_ab A_a^dag A_b).
    """
    terms, K = me.terms, me.K

    def dissipator(rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(K)
        for _, rate, A_b, A_a_dag in terms:
            out = out + rate * (A_b @ rho @ A_a_dag)
        return out - 0.5 * (K @ rho + rho @ K)

    return dissipator


def pair_sum_rhs(me: MasterEquation, rho: np.ndarray) -> np.ndarray:
    """-i [H_S, rho] + D(rho) for a raw state matrix, D the pair sum."""
    h = me.H_S.matrix
    return -1j * (h @ rho - rho @ h) + build_dissipator(me)(rho)


def build_lamb_shift(couplings, frequencies, shifts) -> Operator:
    """The environment-induced Hermitian correction sum_w s_ab(w) A_a(w)^dag A_b(w),
    with one Hermitian shift matrix s(w) per frequency w."""
    if len(shifts) != len(frequencies):
        raise ValueError("one Lamb-shift matrix required per frequency")
    mats = []
    for w, s in zip(frequencies, shifts):
        s = np.array(s, dtype=complex)
        if float(np.max(np.abs(s - s.conj().T))) > GAMMA_HERM_TOL:
            raise ValueError(f"Lamb-shift matrix at {w} is not Hermitian")
        mats.append(s)
    space = next(eo.op.space for fam in couplings for eo in fam)
    dim = space.total_dim
    terms = _channel_terms(couplings, tuple(frequencies), tuple(mats), dim)
    return Operator(space, _pair_sum(terms, dim), label="H_LS")


def lamb_shift_commutation_defect(h_ls: Operator, h_s: Operator) -> float:
    """||[H_LS, H_S]||: nonzero when the shift mixes eigenstates of H_S
    instead of re-tuning their energies."""
    c = h_ls.matrix @ h_s.matrix - h_s.matrix @ h_ls.matrix
    return float(np.linalg.norm(c))


def propagate_deterministic(b: np.ndarray, f: np.ndarray, t: float) -> np.ndarray:
    """No-jump propagation exp(-iBt) f exp(+iB^dag t) under the no-jump
    generator ``b`` (``MasterEquation.B``)."""
    from scipy.linalg import expm

    u = expm(-1j * b * t)
    return u @ np.asarray(f, dtype=complex) @ u.conj().T
