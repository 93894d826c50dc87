"""Dissipative Jaynes-Cummings model with a shared zero-temperature reservoir.

A resonant two-level atom and a truncated field mode exchange one quantum
coherently while both couple to the same vacuum environment, giving the
rate matrix

    [[g11, g12], [conj(g12), g22]]

over the channels (atomic lowering, mode lowering).  The off-diagonal
rate creates a collective jump channel; when g11 = g22, |g12|^2 = g11 g22
and arg(g12) matches arg(eps), the antisymmetric one-excitation state is
annihilated by that channel and stationary under the Hamiltonian, so half
of the initial excitation survives forever in a maximally entangled state.
An optional second, independent mode loss (imperfect mirrors) adds
k_mirror to the diagonal mode rate only and destroys that protection.

Excitation conservation makes each n-excitation sector a closed 2x2
problem for the no-jump generator; the analytic sector propagator here is
the reference that any looser closed-form variant is checked against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DensityMatrix,
    HilbertSpace,
    KetState,
    Operator,
    StateSeries,
    basis_index,
    basis_ket,
    embed,
)
from .eigenops import decompose, eigenoperators
from .master_equation import FREQ_MATCH_TOL, MasterEquation, SpectralTensor

__all__ = [
    "JCParams",
    "BlockSolution",
    "jc_space",
    "jc_initial",
    "jc_initial_ket",
    "build_jc",
    "excitation_number",
    "dark_state",
    "ground_state",
    "closed_form_block",
    "closed_form_states",
    "wootters_concurrence",
    "x_state_concurrence",
    "CONDITIONAL_FLOOR",
    "ConditionalState",
    "conditional_state",
    "two_qubit_projection",
    "sector_entries",
    "excited_population",
    "ground_population",
    "asymptotic_state",
]

PSD_SLACK = 1e-12
# no-emission weight at or below which the conditional state is undefined
CONDITIONAL_FLOOR = 1e-12


@dataclass(frozen=True)
class JCParams:
    """Model inputs: frequencies, coupling, decay rates, truncation.

    ``g12`` is the cross rate of the shared bath (its conjugate enters the
    mirrored term); ``k_mirror`` is an independent extra mode-loss rate.
    The bound |g12|^2 <= g11 g22 is positivity of the shared-bath rate
    matrix and is enforced, not warned about.
    """

    omega0: float
    eps: complex
    g11: float
    g22: float
    g12: complex = 0.0
    k_mirror: float = 0.0
    n_exc: int = 1
    n_max: int | None = None

    def __post_init__(self):
        # one "<field>: <rule>" message per field, in the order the config
        # parser reads them; a frequency at or below FREQ_MATCH_TOL counts
        # as 0, where no coupling splits
        n_max = self.n_exc + 2 if self.n_max is None else int(self.n_max)
        if self.omega0 <= FREQ_MATCH_TOL:
            raise ValueError(
                f"omega0: must be > 0 (above the frequency resolution {FREQ_MATCH_TOL!r})"
            )
        if not math.isfinite(self.omega0 * (n_max + 1)):
            raise ValueError(
                "omega0: must be a finite number with omega0 * (n_max + 1) finite "
                f"(n_max = {n_max})"
            )
        if not cmath.isfinite(self.eps):
            raise ValueError("eps: must be a finite number")
        if self.n_exc < 0:
            raise ValueError("n_exc: must be >= 0")
        if n_max < self.n_exc + 2:
            raise ValueError(f"n_max: must be at least n_exc + 2 = {self.n_exc + 2}")
        for name in ("g11", "g22", "g12", "k_mirror"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be a finite number")
            if name != "g12" and getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if abs(self.g12) ** 2 > self.g11 * self.g22 + PSD_SLACK:
            raise ValueError(
                f"g12: |g12|^2 = {abs(self.g12) ** 2:.3e} "
                f"exceeds g11*g22 = {self.g11 * self.g22:.3e}"
            )
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "eps", complex(self.eps))
        object.__setattr__(self, "g12", complex(self.g12))

    @property
    def cavity_rate(self) -> float:
        """Total mode decay rate: shared bath plus mirror loss."""
        return self.g22 + self.k_mirror


def jc_space(p: JCParams) -> HilbertSpace:
    """|atom, photons> with atom index 0 = |+>; flat indices come from
    ``basis_index`` on this space, taken only in this module."""
    return HilbertSpace((2, p.n_max + 1))


def _on(space: HilbertSpace, rows, cols, values, label: str = "") -> Operator:
    """The operator with ``values`` at (rows, cols) and exact zeros elsewhere."""
    m = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    m[rows, cols] = values
    return Operator(space, m, label=label)


def _photons(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(k) for k = 1 .. levels - 1, and the photon count at each flat
    index |+, k> = k, |-, k> = levels + k as the embedded a_dag a holds
    it: sqrt(k) * sqrt(k)."""
    root = np.sqrt(np.arange(1.0, levels))
    count = np.zeros(levels)
    count[1:] = root * root
    return root, np.tile(count, 2)


def _hamiltonians(p: JCParams, space: HilbertSpace):
    """S_+, S_-, a, a_dag and the bare and full Hamiltonians, each set on
    its nonzeros: the bits of the embedded operators and their products,
    without a product of d x d matrices."""
    levels = space.factor_dims[1]
    plus = np.arange(levels)  # |+, k>; |-, k> is levels + k
    root, count = _photons(levels)
    atom = {"S_plus": _on(space, plus, plus + levels, 1.0, "S_plus"),
            "S_minus": _on(space, plus + levels, plus, 1.0, "S_minus")}
    lower = np.concatenate([plus[:-1], plus[:-1] + levels])  # a takes index + 1 to it
    roots = np.tile(root, 2)
    cav = {"a": _on(space, lower, lower + 1, roots, "a"),
           "a_dag": _on(space, lower + 1, lower, roots, "a_dag")}
    h_bare = Operator(space, np.diag(
        np.repeat([0.5 * p.omega0, -0.5 * p.omega0], levels) + p.omega0 * count
    ))
    # eps a S_+ + conj(eps) a_dag S_-: |-, k> <-> |+, k - 1>
    pairs = (plus[:-1], plus[1:] + levels)
    h_int = _on(space, np.concatenate(pairs), np.concatenate(pairs[::-1]),
                np.concatenate([p.eps * root, np.conj(p.eps) * root]))
    return atom, cav, h_bare, h_bare + h_int


def build_jc(p: JCParams, tensor: SpectralTensor | None = None) -> MasterEquation:
    """Assemble the master equation for the shared-bath model.

    The coupling channels are the frequency components of S_+ + S_- and
    a + a_dag, split against the bare (uncoupled) Hamiltonian, which
    yields the plain lowering operators S_- and a at the resonance
    frequency.  The rate matrix is applied flat across all positive
    frequencies, and the tensor is built already filtered for zero
    temperature.  A given ``tensor`` (zero-temperature, channels atom and
    mode) replaces that flat rate matrix; the rates in ``p`` are then
    unused.  Each of its positive frequencies must carry a coupling
    component: a rate anywhere else would act on no operator and
    silently vanish, so it is a ValueError.
    """
    space = jc_space(p)
    atom, cav, h_bare, h_full = _hamiltonians(p, space)
    decomp = decompose(h_bare)
    fam1 = tuple(eigenoperators(atom["S_plus"] + atom["S_minus"], decomp, source_index=0))
    fam2 = tuple(eigenoperators(cav["a"] + cav["a_dag"], decomp, source_index=1))
    emitting = [eo.frequency for fam in (fam1, fam2) for eo in fam if eo.frequency > FREQ_MATCH_TOL]
    freqs = sorted({round(w, 12) for w in emitting})

    if tensor is None:
        g = np.array([[p.g11, p.g12], [np.conj(p.g12), p.cavity_rate]], dtype=complex)
        tensor = SpectralTensor(tuple(freqs), tuple(g for _ in freqs))
    for w in tensor.frequencies:
        if w > FREQ_MATCH_TOL and not any(abs(f - w) <= FREQ_MATCH_TOL for f in freqs):
            raise ValueError(
                f"no coupling component at tensor frequency {w!r} (the channels act at {freqs})"
            )
    return MasterEquation(
        H_S=Operator(space, h_full.matrix, label="H_S"), couplings=(fam1, fam2), tensor=tensor
    )


def excitation_number(space: HilbertSpace) -> Operator:
    """Total excitation count: atomic inversion projector plus photon number."""
    levels = space.factor_dims[1]
    count = _photons(levels)[1]
    count[:levels] += 1.0
    return Operator(space, np.diag(count), label="N_exc")


def jc_initial_ket(p: JCParams, kind: str = "atom") -> KetState:
    """Canonical pure initial state, one basis ket of sector n_exc.

    ``atom``: excitation in the atom, |n_exc - 1 photons, +>;
    ``photon``: all excitations photonic, |n_exc photons, ->.
    With n_exc = 0 both kinds are the ground state.
    """
    if kind not in ("atom", "photon"):
        raise ValueError(f"initial kind {kind!r} is not a pure state (atom or photon)")
    space = jc_space(p)
    if p.n_exc == 0:
        return ground_state(space)
    return basis_ket(space, (0, p.n_exc - 1) if kind == "atom" else (1, p.n_exc))


def jc_initial(p: JCParams, kind: str = "atom") -> DensityMatrix:
    """Canonical sector-pure initial states: the projector of
    :func:`jc_initial_ket`, or for ``mix`` the even statistical mixture of
    the ``atom`` and ``photon`` states.
    """
    if kind == "mix":
        m = 0.5 * jc_initial(p, "atom").matrix + 0.5 * jc_initial(p, "photon").matrix
        return DensityMatrix(jc_space(p), m)
    return jc_initial_ket(p, kind).projector()


def ground_state(space: HilbertSpace) -> KetState:
    return basis_ket(space, (1, 0))


def dark_state(p: JCParams) -> KetState:
    """One-excitation state annihilated by the collective jump channel.

    |psi> = (|0 photons, +> - e^{-i phi} |1 photon, ->) / sqrt(2) with phi
    the cross-rate phase (falling back to the coupling phase when g12 = 0).
    It is also a Hamiltonian eigenvector exactly when phi = arg(eps).
    """
    space = jc_space(p)
    phi = cmath.phase(p.g12) if abs(p.g12) > 0 else cmath.phase(p.eps)
    v = (
        basis_ket(space, (0, 0)).amplitudes
        - cmath.exp(-1j * phi) * basis_ket(space, (1, 1)).amplitudes
    ) / math.sqrt(2.0)
    return KetState(space, v)


@dataclass(frozen=True)
class BlockSolution:
    """Analytic no-jump evolution of one excitation sector.

    The sector span{|n-1 photons, +>, |n photons, ->} closes under the
    no-jump generator; its 2x2 restriction is

        theta * I + [[Delta, sqrt(n) M], [sqrt(n) P, -Delta]],

    and the stored constants are exactly these matrix elements, so
    A_n^2 = Delta^2 + n M P holds by construction with A_n the complex
    half-splitting (principal branch, Re >= 0).  The coefficient arrays
    are the sector matrix elements over the grid; their values are
    branch-invariant because only even/odd pairs of A_n enter.
    """

    n: int
    Omega0: complex
    Omega: complex
    M: complex
    P: complex
    Delta: complex
    A_n: complex
    theta: complex
    grid: np.ndarray
    rho11: np.ndarray
    rho12: np.ndarray
    rho21: np.ndarray
    rho22: np.ndarray

    def __post_init__(self):
        lhs = self.A_n**2
        rhs = self.Delta**2 + self.n * self.M * self.P
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            raise ValueError("A_n^2 != Delta^2 + n M P")
        if self.A_n.real < 0 or (self.A_n.real == 0 and self.A_n.imag < 0):
            raise ValueError("A_n branch must have Re >= 0")
        if np.max(np.abs(self.rho21 - np.conj(self.rho12))) > 1e-12:
            raise ValueError("rho21 != conj(rho12)")
        for name in ("rho11", "rho22"):
            arr = getattr(self, name)
            if np.max(np.abs(arr.imag)) > 1e-10:
                raise ValueError(f"{name} is not real")
            if np.min(arr.real) < -1e-10:
                raise ValueError(f"{name} dips below zero")
        if np.max(self.rho11.real + self.rho22.real) > 1.0 + 1e-9:
            raise ValueError("sector populations exceed 1")
        for name in ("grid", "rho11", "rho12", "rho21", "rho22"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def survival(self) -> np.ndarray:
        """Probability that no quantum has been lost: rho11 + rho22."""
        return self.rho11.real + self.rho22.real


def _sector_matrix(p: JCParams, n: int) -> np.ndarray:
    ga, gc, gx = p.g11, p.cavity_rate, p.g12
    rn = math.sqrt(n)
    b11 = p.omega0 * (n - 0.5) - 0.5j * (ga + (n - 1) * gc)
    b22 = p.omega0 * (n - 0.5) - 0.5j * (n * gc)
    b12 = rn * (p.eps - 0.5j * gx)
    b21 = rn * (np.conj(p.eps) - 0.5j * np.conj(gx))
    return np.array([[b11, b12], [b21, b22]], dtype=complex)


def _principal_halfsplit(z: complex) -> complex:
    a = cmath.sqrt(z)
    if a.real < 0 or (a.real == 0 and a.imag < 0):
        a = -a
    return a


def _sector_propagator(bn: np.ndarray, t: np.ndarray, branch: int = 1) -> np.ndarray:
    """exp(-i bn t) for a 2x2 block, exact via trace/deviator split.

    Returns an array of shape (len(t), 2, 2).  ``branch`` flips the sign
    of the half-splitting; the result must not depend on it.
    """
    theta = (bn[0, 0] + bn[1, 1]) / 2.0
    dev = bn - theta * np.eye(2)
    lam = branch * _principal_halfsplit(dev[0, 0] ** 2 + dev[0, 1] * dev[1, 0])
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * theta * t)
    out = np.empty((len(t), 2, 2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if lam == 0:
            # nilpotent deviator: the series terminates
            sin_over = t.astype(complex)
            cos_part = np.ones_like(t, dtype=complex)
        else:
            cos_part = np.cos(lam * t)
            sin_over = np.sin(lam * t) / lam
        for i in range(2):
            for j in range(2):
                out[:, i, j] = phase * (
                    cos_part * (1.0 if i == j else 0.0) - 1j * sin_over * dev[i, j]
                )
    # at long times cos(lam t) overflows while the phase underflows; there
    # phase * cos and phase * sin / lam come from the eigenvalue exponentials
    # exp(-i(theta -+ lam)t), which the PSD damping part keeps bounded
    far = ~np.isfinite(out).all(axis=(1, 2))
    if far.any():
        minus, plus = (np.exp(-1j * (theta + s * lam) * t[far]) for s in (-1, 1))
        cos_far = ((minus + plus) / 2.0)[:, None, None]
        sin_far = ((minus - plus) / (2j * lam))[:, None, None]
        out[far] = cos_far * np.eye(2) - 1j * sin_far * dev
    return out


_INITIAL_BLOCKS = {
    "atom": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "photon": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    "mix": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


def closed_form_block(
    p: JCParams,
    n: int,
    grid: np.ndarray,
    initial: str = "atom",
    _branch: int = 1,
) -> BlockSolution:
    """Analytic sector solution rho_n(t) = E(t) rho_n(0) E(t)^dag.

    ``initial`` selects which basis ket (or their even mixture) carries
    the excitation at t = 0; starting from the photon side reproduces the
    same decay envelope with the roles of the two kets exchanged.
    Mirror loss folds into the mode rate; the cross rate is unchanged.
    """
    if n < 1:
        raise ValueError("sector index must be >= 1")
    if initial not in _INITIAL_BLOCKS:
        raise ValueError(f"unknown initial kind {initial!r}")
    t = np.asarray(grid, dtype=float)
    bn = _sector_matrix(p, n)
    theta = (bn[0, 0] + bn[1, 1]) / 2.0
    delta = (bn[0, 0] - bn[1, 1]) / 2.0
    rn = math.sqrt(n)
    m_const = bn[0, 1] / rn
    p_const = bn[1, 0] / rn
    a_n = _principal_halfsplit(delta**2 + n * m_const * p_const)

    E = _sector_propagator(bn, t, branch=_branch)
    r0 = _INITIAL_BLOCKS[initial]
    blocks = np.einsum("tij,jk,tlk->til", E, r0, E.conj())
    return BlockSolution(
        n=n,
        Omega0=p.omega0 - 0.5j * p.g11,
        Omega=p.omega0 - 0.5j * p.cavity_rate,
        M=complex(m_const),
        P=complex(p_const),
        Delta=complex(delta),
        A_n=complex(a_n),
        theta=complex(theta),
        grid=t,
        rho11=blocks[:, 0, 0],
        rho12=blocks[:, 0, 1],
        rho21=blocks[:, 0, 1].conj(),
        rho22=blocks[:, 1, 1],
    )


def closed_form_states(
    p: JCParams, grid: np.ndarray, initial: str = "atom"
) -> StateSeries:
    """Complete single-excitation states from the analytic sector-1 solution,
    checked as one series at tolerance 1e-7.

    The sector block sits on its two kets; the weight it has lost is in
    the ground state, the only other state one excitation can decay to.
    """
    if p.n_exc != 1:
        raise ValueError("closed-form states need n_exc = 1")
    block = closed_form_block(p, 1, grid, initial=initial)
    space = jc_space(p)
    i1, i2 = _sector_indices(space, 1)
    ig = basis_index(space, (1, 0))
    r11, r22 = block.rho11.real, block.rho22.real
    m = np.zeros((len(block.grid), space.total_dim, space.total_dim), dtype=complex)
    m[:, i1, i1] = r11
    m[:, i1, i2] = block.rho12
    m[:, i2, i1] = block.rho21
    m[:, i2, i2] = r22
    m[:, ig, ig] = 1.0 - r11 - r22
    return DensityMatrix.stack(space, m, 1e-7)


def _matrix(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)


def _per_state(values: np.ndarray) -> float | np.ndarray:
    """A float for one state, the array for a stack of states."""
    return float(values) if values.ndim == 0 else values


def wootters_concurrence(rho4: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence from the spin-flip eigenvalue construction.

    C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) with l_k the
    descending eigenvalues of rho (sy (x) sy) rho* (sy (x) sy).  Takes one
    4x4 state (returns a float) or a stack (..., 4, 4) (returns an array).
    """
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape[-2:] != (4, 4):
        raise ValueError("need a 4x4 two-qubit state")
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    flip = np.kron(sy, sy)
    m = rho4 @ flip @ rho4.conj() @ flip
    evals = np.sort(np.abs(np.real(np.linalg.eigvals(m))), axis=-1)[..., ::-1]
    roots = np.sqrt(evals)
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return _per_state(np.maximum(0.0, c))


# the entries of a 4x4 two-qubit state off its diagonal and anti-diagonal
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def x_state_concurrence(rho4: np.ndarray) -> float | np.ndarray:
    """Two-qubit concurrence, in closed form when the input is an X state.

    When every entry off the diagonal and the anti-diagonal is exactly 0
    over the whole input, C = 2 max(0, |r03| - sqrt(r11 r22),
    |r12| - sqrt(r00 r33)) (Wootters, PRL 80, 2245 (1998); Yu & Eberly,
    Quantum Inf. Comput. 7, 459 (2007)), each product clamped at 0 before
    its root.  Unlike the spin-flip route it takes no root of a near-zero
    eigenvalue, so it keeps full precision where a block is rank 1.  Any
    other input gets :func:`wootters_concurrence` unchanged.  Takes one
    4x4 state (returns a float) or a stack (..., 4, 4) (returns an array).
    """
    rho4 = np.asarray(rho4, dtype=complex)
    if rho4.shape[-2:] != (4, 4):
        raise ValueError("need a 4x4 two-qubit state")
    if np.any(rho4[..., _OFF_X]):
        return wootters_concurrence(rho4)
    p = np.diagonal(rho4, axis1=-2, axis2=-1).real
    outer = np.abs(rho4[..., 0, 3]) - np.sqrt(np.maximum(p[..., 1] * p[..., 2], 0.0))
    inner = np.abs(rho4[..., 1, 2]) - np.sqrt(np.maximum(p[..., 0] * p[..., 3], 0.0))
    return _per_state(2.0 * np.maximum(0.0, np.maximum(outer, inner)))


def two_qubit_projection(rho: DensityMatrix | np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Restrict a full atom (x) mode state to the {0, 1}-photon two-qubit block.

    The block is taken as-is (not renormalized); for dynamics that never
    populate two or more photons it carries essentially all the weight.
    Takes one state (returns 4x4) or a stack (..., d, d) (returns (..., 4, 4)).
    """
    idx = [basis_index(space, (a, n)) for a in (0, 1) for n in (0, 1)]
    return _matrix(rho)[(..., *np.ix_(idx, idx))]


def _sector_indices(space: HilbertSpace, n: int) -> tuple[int, int]:
    """Flat indices of the sector-n kets |n-1 photons, +> and |n photons, ->."""
    return basis_index(space, (0, n - 1)), basis_index(space, (1, n))


def sector_entries(rho: DensityMatrix | np.ndarray, space: HilbertSpace, n: int):
    """Matrix elements (r11, r12, r22) on span{|n-1 photons, +>, |n photons, ->}.

    The unnormalized no-jump block of sector n >= 1: scalars for one
    state, arrays over the leading axes for a stack (..., d, d).
    """
    a, b = _sector_indices(space, n)
    m = _matrix(rho)
    return m[..., a, a].real, m[..., a, b], m[..., b, b].real


class ConditionalState(NamedTuple):
    """The no-emission state of one sector, see :func:`conditional_state`."""

    weight: np.ndarray
    p11: np.ndarray
    re_p12: np.ndarray
    im_p12: np.ndarray
    p22: np.ndarray
    concurrence: np.ndarray


def conditional_state(
    rho: DensityMatrix | np.ndarray, space: HilbertSpace, n: int
) -> ConditionalState:
    """State postselected on zero emissions, read from the sector-n block.

    ``weight`` is the no-emission probability w = r11 + r22; the entries
    of the normalized block and its concurrence 2 |r12| / w (the exact
    value for a block on two kets) are NaN where w <= CONDITIONAL_FLOOR.
    Arrays over the leading axes of a stack (..., d, d).
    """
    r11, r12, r22 = sector_entries(rho, space, n)
    w = r11 + r22
    keep = w > CONDITIONAL_FLOOR

    def normalized(x: np.ndarray) -> np.ndarray:
        out = np.full(w.shape, np.nan)
        out[keep] = x[keep] / w[keep]
        return out

    return ConditionalState(
        w, *map(normalized, (r11, r12.real, r12.imag, r22, 2.0 * np.hypot(r12.real, r12.imag)))
    )


def excited_population(rho: DensityMatrix | np.ndarray, space: HilbertSpace) -> float | np.ndarray:
    """Probability of finding the atom excited: a float for one state, an
    array for a stack (..., d, d)."""
    excited = embed(np.diag([1.0, 0.0]), space, 0).matrix.diagonal() != 0
    # the complex diagonal summed whole, ground entries zeroed: the bits of tr(P+ rho)
    diag = np.diagonal(_matrix(rho), axis1=-2, axis2=-1)
    return _per_state(np.where(excited, diag, 0).sum(axis=-1).real)


def ground_population(rho: DensityMatrix | np.ndarray, space: HilbertSpace) -> float | np.ndarray:
    """Probability of the ground state |0 photons, ->, all of sector 0: a
    float for one state, an array for a stack (..., d, d)."""
    g = basis_index(space, (1, 0))
    return _per_state(_matrix(rho)[..., g, g].real)


def _is_dfs(p: JCParams, tol: float = 1e-9) -> bool:
    if p.k_mirror > tol or p.g11 <= 0:
        return False
    scale = max(p.g11, p.g22)
    if abs(p.g11 - p.g22) > tol * scale:
        return False
    if abs(abs(p.g12) - math.sqrt(p.g11 * p.g22)) > tol * scale:
        return False
    if abs(p.eps) > 0 and abs(p.g12) > 0:
        # collective-channel phase must match the coupling phase so the
        # dark state is also a Hamiltonian eigenvector
        phase_gap = cmath.phase(p.g12 * np.conj(p.eps) / (abs(p.g12) * abs(p.eps)))
        if abs(phase_gap) > 1e-9:
            return False
    return True


def asymptotic_state(
    p: JCParams, initial: KetState | None = None
) -> tuple[DensityMatrix, str]:
    """Long-time state for a single injected excitation, with classification.

    In the protected regime (no mirror loss, equal rates, cross rate on
    the positivity boundary with matching phase) the dark component of
    the initial state survives and the rest decays, leaving the mixture
    w |psi_dark><psi_dark| + (1 - w) |ground><ground| with w the initial
    dark-state overlap; any other rates decay to the ground state.  The
    default initial state |0 photons, +> has w = 1/2 exactly.
    """
    if p.n_exc != 1:
        raise ValueError("asymptotics are defined for a single injected excitation")
    if p.g11 + p.g22 <= 0:
        raise ValueError("no decay channel: asymptotic state undefined")
    space = jc_space(p)
    psi0 = jc_initial_ket(p) if initial is None else initial
    if psi0.space != space:
        raise ValueError("initial ket lives on the wrong space")

    label = "dfs" if _is_dfs(p) else "decaying"
    psi_g = ground_state(space)
    if label == "dfs":
        psi_d = dark_state(p)
        w = abs(np.vdot(psi_d.amplitudes, psi0.amplitudes)) ** 2
        m = w * psi_d.projector().matrix + (1.0 - w) * psi_g.projector().matrix
    else:
        m = psi_g.projector().matrix
    return DensityMatrix(space, m), label
