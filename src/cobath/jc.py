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
    basis_index,
    basis_ket,
    embed,
    make_atom_ops,
    make_cavity_ops,
)
from .eigenops import decompose, eigenoperators
from .master_equation import MasterEquation, SpectralTensor, integrate
from .trajectories import TrajectoryHierarchy, solve_hierarchy

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
    "block_concurrence_exact",
    "block_concurrence_variant",
    "CONDITIONAL_FLOOR",
    "ConditionalState",
    "conditional_state",
    "two_qubit_projection",
    "sector_entries",
    "excited_population",
    "ground_population",
    "asymptotic_state",
    "no_jump_postselect",
    "solve_jc_hierarchy",
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
        if self.omega0 <= 0:
            raise ValueError("omega0 must be > 0")
        if self.g11 < 0 or self.g22 < 0 or self.k_mirror < 0:
            raise ValueError("decay rates must be non-negative")
        if self.n_exc < 0:
            raise ValueError("n_exc must be non-negative")
        if abs(self.g12) ** 2 > self.g11 * self.g22 + PSD_SLACK:
            raise ValueError(
                f"|g12|^2 = {abs(self.g12) ** 2:.3e} exceeds g11*g22 = {self.g11 * self.g22:.3e}"
            )
        n_max = self.n_exc + 2 if self.n_max is None else int(self.n_max)
        if n_max < self.n_exc + 2:
            raise ValueError(f"n_max must be at least n_exc + 2 = {self.n_exc + 2}")
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


def _hamiltonians(p: JCParams, space: HilbertSpace):
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    h_bare = 0.5 * p.omega0 * atom["S_z"] + p.omega0 * cav["n_op"]
    h_int = p.eps * (cav["a"] @ atom["S_plus"]) + np.conj(p.eps) * (
        cav["a_dag"] @ atom["S_minus"]
    )
    return atom, cav, h_bare, h_bare + h_int


def build_jc(
    p: JCParams, dressed: bool = False, tensor: SpectralTensor | None = None
) -> MasterEquation:
    """Assemble the master equation for the shared-bath model.

    The coupling channels are the frequency components of S_+ + S_- and
    a + a_dag.  By default they are split against the bare (uncoupled)
    Hamiltonian, which yields the plain lowering operators S_- and a at
    the resonance frequency; ``dressed=True`` splits against the full
    Hamiltonian instead (sensitivity studies only).  The rate matrix is
    applied flat across all positive frequencies, the tensor is built
    already filtered for zero temperature, and no Lamb shift is included.
    A given ``tensor`` (zero-temperature, channels atom and mode) replaces
    that flat rate matrix; the rates in ``p`` are then unused.
    """
    space = jc_space(p)
    atom, cav, h_bare, h_full = _hamiltonians(p, space)
    ref = h_full if dressed else h_bare
    decomp = decompose(ref)
    fam1 = tuple(eigenoperators(atom["S_plus"] + atom["S_minus"], decomp, source_index=0))
    fam2 = tuple(eigenoperators(cav["a"] + cav["a_dag"], decomp, source_index=1))

    if tensor is None:
        g = np.array([[p.g11, p.g12], [np.conj(p.g12), p.cavity_rate]], dtype=complex)
        freqs = sorted(
            {round(eo.frequency, 12) for fam in (fam1, fam2) for eo in fam if eo.frequency > 1e-9}
        )
        tensor = SpectralTensor(tuple(freqs), tuple(g for _ in freqs))
    return MasterEquation(
        H_S=Operator(space, h_full.matrix, label="H_S"),
        couplings=(fam1, fam2),
        tensor=tensor,
        H_LS=None,
        temperature_mode="zero",
    )


def excitation_number(space: HilbertSpace) -> Operator:
    """Total excitation count: atomic inversion projector plus photon number."""
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    return Operator(
        space,
        (atom["S_plus"] @ atom["S_minus"] + cav["n_op"]).matrix,
        label="N_exc",
    )


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
    if lam == 0:
        # nilpotent deviator: the series terminates
        sin_over = t.astype(complex)
        cos_part = np.ones_like(t, dtype=complex)
    else:
        cos_part = np.cos(lam * t)
        sin_over = np.sin(lam * t) / lam
    out = np.empty((len(t), 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[:, i, j] = phase * (
                cos_part * (1.0 if i == j else 0.0) - 1j * sin_over * dev[i, j]
            )
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
) -> list[DensityMatrix]:
    """Complete single-excitation states from the analytic sector-1 solution.

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


def block_concurrence_exact(r11: float, r12: complex, r22: float) -> float:
    """Concurrence of the normalized conditional one-excitation state.

    For a state supported on {|0,+>, |1,->} the spin-flip construction
    collapses to 2 |r12| / (r11 + r22); kept as an independent algebraic
    cross-check of the eigenvalue route.
    """
    tr = r11 + r22
    if tr <= CONDITIONAL_FLOOR:
        raise ValueError("conditional block has vanishing weight")
    return float(2.0 * abs(r12) / tr)


def block_concurrence_variant(r11: float, r12: complex, r22: float) -> float:
    """Alternative closed-form candidate retained only for the discrepancy report.

    Reads the conditional concurrence as a difference of two square roots
    built from the block entries.  It does NOT agree with the spin-flip
    value (see docs/concurrence_discrepancy.md); shipped results always
    use :func:`wootters_concurrence` / :func:`block_concurrence_exact`.
    """
    tr = r11 + r22
    if tr <= CONDITIONAL_FLOOR:
        raise ValueError("conditional block has vanishing weight")
    core = 2.0 * (r11 * r22 + abs(r12) ** 2)
    cross = 4.0 * r22 * abs(r12)
    hi = max(core + cross, 0.0) / tr
    lo = max(core - cross, 0.0) / tr
    return float(math.sqrt(hi) - math.sqrt(lo))


def _conditional_two_qubit(r11: float, r12: complex, r22: float) -> np.ndarray:
    tr = r11 + r22
    if tr <= CONDITIONAL_FLOOR:
        raise ValueError("conditional block has vanishing weight")
    rho = np.zeros((4, 4), dtype=complex)
    # basis of two_qubit_projection, |+,0>, |+,1>, |-,0>, |-,1>: the
    # excitation lives on |+,0> (index 0) and |-,1> (index 3)
    rho[0, 0] = r11 / tr
    rho[0, 3] = r12 / tr
    rho[3, 0] = np.conj(r12) / tr
    rho[3, 3] = r22 / tr
    return rho


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
    proj = embed(np.diag([1.0, 0.0]), space, 0).matrix
    return _per_state(np.real(np.trace(proj @ _matrix(rho), axis1=-2, axis2=-1)))


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
    p: JCParams,
    initial: KetState | None = None,
    verify: bool = True,
    horizon_factor: float = 20.0,
) -> tuple[DensityMatrix, str]:
    """Long-time state for a single injected excitation, with classification.

    In the protected regime (no mirror loss, equal rates, cross rate on
    the positivity boundary with matching phase) the dark component of
    the initial state survives and the rest decays, leaving the mixture
    w |psi_dark><psi_dark| + (1 - w) |ground><ground| with w the initial
    dark-state overlap; any other rates decay to the ground state.  The
    default initial state |0 photons, +> has w = 1/2 exactly.  With
    ``verify=True`` the prediction is checked against direct integration
    to t = horizon_factor / (g11 + g22) at 1e-3.
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
    prediction = DensityMatrix(space, m)

    if verify:
        t_end = horizon_factor / (p.g11 + p.g22)
        me = build_jc(p)
        grid = np.linspace(0.0, t_end, 201)
        final = integrate(me, psi0.projector(), grid)[-1]
        gap = float(np.max(np.abs(final.matrix - prediction.matrix)))
        if gap > 1e-3:
            raise RuntimeError(
                f"asymptotic classification {label!r} failed dynamical check: gap {gap:.3e}"
            )
    return prediction, label


def no_jump_postselect(h: TrajectoryHierarchy, t: float, space: HilbertSpace) -> DensityMatrix:
    """State prepared by detecting zero emitted quanta up to time t.

    Returns the normalized top hierarchy block; its trace is the
    no-emission probability and must not have vanished.
    """
    block = h.block_at(h.n_max_exc, t)
    tr = float(np.trace(block).real)
    if tr <= CONDITIONAL_FLOOR:
        raise ValueError(f"no-jump probability vanished at t = {t!r}")
    m = (block + block.conj().T) / 2.0 / tr
    return DensityMatrix(space, m, tolerance=1e-7)


def solve_jc_hierarchy(
    p: JCParams,
    t_grid: np.ndarray,
    initial: str = "atom",
    max_step: float | None = None,
) -> TrajectoryHierarchy:
    """Convenience wrapper: sector-resolved solve for the canonical initial states."""
    me = build_jc(p)
    rho0 = jc_initial(p, initial)
    return solve_hierarchy(me, rho0, t_grid, excitation_number(jc_space(p)), max_step=max_step)
