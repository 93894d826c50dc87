"""Markovian master equation with a cross-correlated decay-rate tensor.

The generator is

    d rho / dt = -i [H_S + H_LS, rho] + D(rho)

with the dissipator summing over frequencies and channel pairs:

    D(rho) = sum_w sum_{a,b} gamma_{a,b}(w)
             ( A_b(w) rho A_a(w)^dag - 1/2 {A_a(w)^dag A_b(w), rho} ).

Off-diagonal gamma entries encode channels that share an environment and
are the source of the cooperative effects this package targets.  Only
zero-temperature dynamics is evolved; finite-temperature tensors can be
validated against detailed balance but not integrated.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    StateError,
    StatePattern,
    StateSeries,
)
from .eigenops import EigenOperator

__all__ = [
    "SpectralTensor",
    "MasterEquation",
    "DetailedBalanceReport",
    "IntegrationError",
    "build_dissipator",
    "build_lamb_shift",
    "apply_t0_filter",
    "validate_detailed_balance",
    "integrate",
    "diagonalize_gamma",
    "jump_operators",
]

GAMMA_HERM_TOL = 1e-12
GAMMA_PSD_TOL = 1e-10
FREQ_MATCH_TOL = 1e-9


class IntegrationError(RuntimeError):
    """Numerical failure during time evolution; carries the failing time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


@dataclass(frozen=True)
class SpectralTensor:
    """Per-frequency rate matrices gamma(w) and optional shift matrices s(w).

    Each gamma(w) must be Hermitian and positive semidefinite: cross rates
    beyond the Cauchy-Schwarz bound |gamma_12|^2 <= gamma_11 gamma_22 make
    the equation unphysical and are rejected, not warned about.
    """

    frequencies: tuple[float, ...]
    gamma: tuple[np.ndarray, ...]
    lamb: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        freqs = tuple(float(w) for w in self.frequencies)
        if len(freqs) != len(self.gamma):
            raise ValueError("one gamma matrix required per frequency")
        ordered = sorted(freqs)
        if any(b - a <= FREQ_MATCH_TOL for a, b in zip(ordered, ordered[1:])):
            raise ValueError("tensor frequencies are duplicated or unresolvably close")
        mats = []
        n = None
        for w, g in zip(freqs, self.gamma):
            g = np.array(g, dtype=complex)
            if g.ndim != 2 or g.shape[0] != g.shape[1]:
                raise ValueError(f"gamma({w}) is not square")
            if n is None:
                n = g.shape[0]
            elif g.shape[0] != n:
                raise ValueError("gamma matrices differ in channel count")
            herm = float(np.max(np.abs(g - g.conj().T)))
            if herm > GAMMA_HERM_TOL:
                raise ValueError(f"gamma({w}) not Hermitian: defect {herm:.3e}")
            evals = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
            if evals.size and evals[0] < -GAMMA_PSD_TOL:
                raise ValueError(
                    f"gamma({w}) not positive semidefinite: eigenvalue {evals[0]:.3e}"
                )
            g.setflags(write=False)
            mats.append(g)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "gamma", tuple(mats))
        if self.lamb is not None:
            if len(self.lamb) != len(freqs):
                raise ValueError("one lamb matrix required per frequency")
            shifts = []
            for w, s in zip(freqs, self.lamb):
                s = np.array(s, dtype=complex)
                if s.shape != (n, n):
                    raise ValueError(f"lamb({w}) has wrong shape")
                herm = float(np.max(np.abs(s - s.conj().T)))
                if herm > GAMMA_HERM_TOL:
                    raise ValueError(f"lamb({w}) not Hermitian: defect {herm:.3e}")
                s.setflags(write=False)
                shifts.append(s)
            object.__setattr__(self, "lamb", tuple(shifts))

    @property
    def n_channels(self) -> int:
        return self.gamma[0].shape[0] if self.gamma else 0

    def gamma_at(self, w: float) -> np.ndarray | None:
        for f, g in zip(self.frequencies, self.gamma):
            if abs(f - w) <= FREQ_MATCH_TOL:
                return g
        return None

    def has_nonpositive_frequencies(self) -> bool:
        return any(w <= FREQ_MATCH_TOL for w in self.frequencies)


class ChannelTerm(NamedTuple):
    """One channel pair (a, b) at frequency w: gamma_ab(w), A_b(w), A_a(w)^dag."""

    frequency: float
    rate: complex
    A_b: np.ndarray
    A_a_dag: np.ndarray


def _coupling_space(couplings: tuple[tuple[EigenOperator, ...], ...]) -> HilbertSpace:
    for fam in couplings:
        for eo in fam:
            return eo.op.space
    raise ValueError("no coupling operators given")


def _coupling_at(
    couplings: tuple[tuple[EigenOperator, ...], ...], channel: int, w: float, dim: int
) -> np.ndarray:
    """Component of a channel at frequency w; zero if the channel has none there."""
    for eo in couplings[channel]:
        if abs(eo.frequency - w) <= FREQ_MATCH_TOL:
            return eo.op.matrix
    return np.zeros((dim, dim), dtype=complex)


def _channel_terms(
    couplings: tuple[tuple[EigenOperator, ...], ...],
    frequencies: tuple[float, ...],
    coefficients: tuple[np.ndarray, ...],
    dim: int,
) -> tuple[ChannelTerm, ...]:
    """Every channel pair with a nonzero coefficient, in (w, a, b) order.

    Terms with an exactly-zero coefficient are skipped, so a tensor with
    zero cross rates performs bit-for-bit the same arithmetic as a
    diagonal (independent-channels) tensor.
    """
    terms = []
    for w, c in zip(frequencies, coefficients):
        ops = [_coupling_at(couplings, a, w, dim) for a in range(c.shape[0])]
        for a in range(c.shape[0]):
            for b in range(c.shape[0]):
                rate = complex(c[a, b])
                if rate != 0:
                    terms.append(ChannelTerm(w, rate, ops[b], ops[a].conj().T))
    return tuple(terms)


def _pair_sum(terms: tuple[ChannelTerm, ...], dim: int) -> np.ndarray:
    """sum over the terms of coefficient * A_a^dag A_b."""
    out = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        out = out + term.rate * (term.A_a_dag @ term.A_b)
    return out


@dataclass(frozen=True)
class MasterEquation:
    """Assembled generator: Hamiltonian, optional shift, channels, tensor.

    ``couplings[a]`` is the family of frequency components of channel a.
    ``terms`` is the channel-term list of the tensor, ``K`` the matrix
    sum gamma_ab A_a^dag A_b and ``B`` = H_S + H_LS - (i/2) (K + K^dag)/2
    the no-jump generator; every generator form is built from these.
    Immutable after assembly; integrations of the same object may run
    concurrently.
    """

    H_S: Operator
    couplings: tuple[tuple[EigenOperator, ...], ...]
    tensor: SpectralTensor
    H_LS: Operator | None = None
    temperature_mode: str = "zero"
    terms: tuple[ChannelTerm, ...] = field(init=False, repr=False, compare=False)
    K: np.ndarray = field(init=False, repr=False, compare=False)
    B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.temperature_mode not in ("zero", "validated-finite"):
            raise ValueError(f"unknown temperature_mode {self.temperature_mode!r}")
        fams = tuple(tuple(f) for f in self.couplings)
        if len(fams) != self.tensor.n_channels:
            raise ValueError(
                f"{len(fams)} coupling families for {self.tensor.n_channels} tensor channels"
            )
        for fam in fams:
            for eo in fam:
                if eo.op.space != self.H_S.space:
                    raise ValueError("coupling operator space mismatch")
        if self.H_LS is not None and self.H_LS.space != self.H_S.space:
            raise ValueError("Lamb-shift operator space mismatch")
        object.__setattr__(self, "couplings", fams)
        dim = self.space.total_dim
        terms = _channel_terms(fams, self.tensor.frequencies, self.tensor.gamma, dim)
        K = _pair_sum(terms, dim)
        B = self.hamiltonian_matrix() - 0.5j * ((K + K.conj().T) / 2.0)
        K.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "B", B)

    @property
    def space(self) -> HilbertSpace:
        return self.H_S.space

    def coupling_at(self, channel: int, w: float) -> np.ndarray:
        return _coupling_at(self.couplings, channel, w, self.space.total_dim)

    def hamiltonian_matrix(self) -> np.ndarray:
        h = self.H_S.matrix
        if self.H_LS is not None:
            h = h + self.H_LS.matrix
        return h

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side of the master equation for a raw state matrix."""
        h = self.hamiltonian_matrix()
        out = -1j * (h @ rho - rho @ h)
        return out + build_dissipator(self)(rho)

    def rate_scale(self) -> float:
        """Largest decay rate in the tensor (sets the dissipative time scale)."""
        best = 0.0
        for g in self.tensor.gamma:
            evals = np.linalg.eigvalsh((g + g.conj().T) / 2.0)
            if evals.size:
                best = max(best, float(evals[-1]))
        return best

    def frequency_scale(self) -> float:
        """Largest frequency of H_S + H_LS or of the tensor (sets the coherent time scale)."""
        h = self.hamiltonian_matrix()
        evals = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
        spread = float(evals[-1] - evals[0]) if evals.size else 0.0
        wmax = max((abs(w) for w in self.tensor.frequencies), default=0.0)
        return max(spread, wmax)


def build_dissipator(me: MasterEquation):
    """Return the dissipator as a callable on raw state matrices.

    For any input the output is Hermiticity- and trace-preserving by
    construction (anticommutator uses K = sum gamma_{a,b} A_a^dag A_b).
    This pair-sum form is the authority the other generator forms are
    tested against.
    """
    terms, K = me.terms, me.K

    def dissipator(rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(K)
        for _, rate, A_b, A_a_dag in terms:
            out = out + rate * (A_b @ rho @ A_a_dag)
        out = out - 0.5 * (K @ rho + rho @ K)
        return out

    return dissipator


def jump_feed(me: MasterEquation):
    """Return the jump superoperator J as a callable on raw state matrices.

    A stack of matrices (leading axes) is mapped matrix by matrix.
    """
    terms = [term for term in me.terms if term.frequency > FREQ_MATCH_TOL]

    def feed(rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for _, rate, A_b, A_a_dag in terms:
            out = out + rate * (A_b @ rho @ A_a_dag)
        return out

    return feed


def lamb_shift_commutation_defect(h_ls: Operator, h_s: Operator) -> float:
    """||[H_LS, H_S]||: diagnostic only, never enforced.

    A nonzero value means the shift does more than re-tune level energies
    (it mixes eigenstates), which is worth knowing before neglecting it.
    """
    c = h_ls.matrix @ h_s.matrix - h_s.matrix @ h_ls.matrix
    return float(np.linalg.norm(c))


def build_lamb_shift(
    couplings: tuple[tuple[EigenOperator, ...], ...],
    tensor: SpectralTensor,
) -> Operator:
    """Environment-induced Hermitian correction sum_w s_{a,b}(w) A_a(w)^dag A_b(w).

    Use :func:`lamb_shift_commutation_defect` to see how badly the result
    fails to commute with the system Hamiltonian.
    """
    if tensor.lamb is None:
        raise ValueError("tensor carries no Lamb-shift coefficients")
    space = _coupling_space(couplings)
    dim = space.total_dim
    terms = _channel_terms(couplings, tensor.frequencies, tensor.lamb, dim)
    return Operator(space, _pair_sum(terms, dim), label="H_LS")


def apply_t0_filter(tensor: SpectralTensor) -> SpectralTensor:
    """Drop all non-positive-frequency entries (no absorption at zero temperature).

    Idempotent: filtering an already-filtered tensor returns an equal tensor.
    """
    keep = [i for i, w in enumerate(tensor.frequencies) if w > FREQ_MATCH_TOL]
    lamb = tuple(tensor.lamb[i] for i in keep) if tensor.lamb is not None else None
    return SpectralTensor(
        tuple(tensor.frequencies[i] for i in keep),
        tuple(tensor.gamma[i] for i in keep),
        lamb,
    )


@dataclass(frozen=True)
class DetailedBalanceReport:
    passed: bool
    max_violation: float


def validate_detailed_balance(
    tensor: SpectralTensor,
    beta: float,
    tol: float = 1e-10,
) -> DetailedBalanceReport:
    """Check the thermal relation gamma(w) = exp(-beta w) gamma(-w) entrywise.

    ``beta = math.inf`` encodes the zero-temperature limit, where the check
    reduces to: every negative-frequency rate matrix vanishes.  This is a
    pure validator; it never modifies the tensor.
    """
    worst = 0.0
    if math.isinf(beta):
        for w, g in zip(tensor.frequencies, tensor.gamma):
            if w < -FREQ_MATCH_TOL:
                worst = max(worst, float(np.max(np.abs(g))))
        return DetailedBalanceReport(worst <= tol, worst)

    for w, g in zip(tensor.frequencies, tensor.gamma):
        if w <= FREQ_MATCH_TOL:
            continue
        g_neg = tensor.gamma_at(-w)
        if g_neg is None:
            g_neg = np.zeros_like(g)
        worst = max(worst, float(np.max(np.abs(g - math.exp(-beta * w) * g_neg))))
    return DetailedBalanceReport(worst <= tol, worst)


def kron_on(dim: int, idx: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(X, Y) -> kron(X, Y)[ix(idx, idx)] for flat row-major indices of a dim x dim matrix.

    Entry for entry the same products as ``np.kron``, without building it.
    """
    i, j = np.divmod(idx, dim)
    rows, cols = np.ix_(i, i), np.ix_(j, j)
    return lambda x, y: x[rows] * y[cols]


def jump_superoperator(terms: tuple[ChannelTerm, ...], kron) -> np.ndarray:
    """rho -> sum_terms gamma_ab A_b rho A_a^dag as a matrix on row-major vec(rho).

    ``kron`` is ``np.kron`` or a restriction from :func:`kron_on`; with no
    terms the result is the scalar 0.0.
    """
    out = 0.0
    for term in terms:
        out = out + term.rate * kron(term.A_b, term.A_a_dag.T)
    return out


def linear_system(me: MasterEquation, shift: int):
    """The zero-temperature generator on a stack of d x d blocks,

        d rho_i / dt = -i (B rho_i - rho_i B^dag) + J(rho_{i - shift}),

    from ``me.B`` and ``me.terms``: ``shift`` 0 is the master equation (one
    block), -1 the excitation hierarchy.  Returns ``rhs`` on a block stack,
    ``generator(support)`` (the matrix on those flat row-major stack
    entries, with the products of the ``kron`` assembly) and the
    ``structure`` that :func:`invariant_support` reads.
    """
    d = me.space.total_dim
    b, b_dag = me.B, me.B.conj().T
    feed = jump_feed(me)

    def rhs(stack: np.ndarray) -> np.ndarray:
        out = -1j * (b @ stack - stack @ b_dag)
        out[: len(stack) + shift] += feed(stack[-shift:])
        return out

    def generator(support: np.ndarray) -> np.ndarray:
        block, entry = np.divmod(support, d * d)
        kron = kron_on(d, entry)
        eye = np.eye(d, dtype=complex)
        nojump = -1j * (kron(b, eye) - kron(eye, b.conj()))
        jumps = jump_superoperator(me.terms, kron)
        return np.where(block[:, None] == block, nojump, 0) + np.where(
            block[:, None] == block + shift, jumps, 0
        )

    eye = np.eye(d)
    jumps = [(shift, term.A_b, term.A_a_dag) for term in me.terms]
    return rhs, generator, [(0, b, eye), (0, eye, b_dag), *jumps]


def liouvillian_matrix(me: MasterEquation, support: np.ndarray | None = None) -> np.ndarray:
    """The one-block :func:`linear_system` as a matrix on row-major vec(rho),
    on the flat indices ``support`` (default: all of them)."""
    everything = np.arange(me.space.total_dim**2)
    return linear_system(me, 0)[1](everything if support is None else support)


def liouvillian_structure(me: MasterEquation) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The terms of :func:`liouvillian_matrix` as rho -> X rho Y, for :func:`invariant_support`."""
    return linear_system(me, 0)[2]


def invariant_support(
    y0: np.ndarray, structure: list[tuple[int, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Flat indices of the smallest coordinate subspace that holds ``y0`` and
    that the generator maps into itself.

    ``y0`` is one d x d block or a stack of them.  ``structure`` lists the
    generator's terms as (shift, X, Y): block b feeds X rho_b Y into block
    b + shift.  Only exact zeros of X and Y are read, so an entry at
    roundoff level counts.  On an invariant subspace S,
    expm(L)[S, S] = expm(L[S, S]) and entries outside S stay exactly 0.
    """
    d = y0.shape[-1]
    reached = (y0 != 0).reshape(-1, d, d)
    # the 0/1 patterns of each shift's terms, one (T, d, d) stack per side
    pats = []
    for shift in dict.fromkeys(s for s, _, _ in structure):
        xs, ys = zip(*((x != 0, y != 0) for s, x, y in structure if s == shift))
        pats.append((shift, np.array(xs, dtype=float), np.array(ys, dtype=float)))
    frontier = reached
    while frontier.any():
        image = np.zeros(reached.shape, dtype=bool)
        for b in np.flatnonzero(frontier.any(axis=(1, 2))):
            # only the rows and columns the new entries occupy enter the products
            rows = np.flatnonzero(frontier[b].any(axis=1))
            cols = np.flatnonzero(frontier[b].any(axis=0))
            f = frontier[b][np.ix_(rows, cols)].astype(float)
            for shift, x, y in pats:
                if 0 <= b + shift < len(image):
                    image[b + shift] |= (x[:, :, rows] @ f @ y[:, cols] > 0).any(axis=0)
        frontier = image & ~reached
        reached = reached | frontier
    return np.flatnonzero(reached)


def default_max_step(me: MasterEquation) -> float:
    """Fixed-step rule: 1/50 of the fastest coherent period or decay time."""
    candidates = []
    w = me.frequency_scale()
    if w > 0:
        candidates.append(2.0 * math.pi / w)
    g = me.rate_scale()
    if g > 0:
        candidates.append(1.0 / g)
    return min(candidates) / 50.0 if candidates else math.inf


MAX_SUBSTEPS = 10_000_000

# Largest support (see invariant_support) propagated with a dense matrix
# exponential.  One expm of the n x n generator costs about n^3: at 256
# entries that is tens of milliseconds, at 1024 more than a whole fixed-step
# RK4 run of the same problem.
EXACT_SIZE_LIMIT = 256

# Largest trace drift and Hermiticity defect a propagated state may show
HYGIENE_TOL = 1e-8


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm(a)``, with scipy imported at the first call.

    The matrix exponential is all this package needs from scipy, and
    importing it costs more than the rest of start-up together, so the
    closed-form engine, plotting and config validation never load it.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _rk4_span(rhs, y: np.ndarray, t0: float, t1: float, h_max: float) -> np.ndarray:
    span = t1 - t0
    if span <= 0:
        return y
    n_sub = max(1, int(math.ceil(span / h_max))) if math.isfinite(h_max) else 1
    if n_sub > MAX_SUBSTEPS:
        raise IntegrationError("step size underflow: required substep count too large", t0)
    h = span / n_sub
    for _ in range(n_sub):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def time_grid(t_grid) -> np.ndarray:
    """The grid as a float array; it must be 1-D, non-empty, finite, strictly
    increasing and, past one point, have a nonzero :func:`grid_resolution`."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be finite and strictly increasing")
    if len(t) > 1 and grid_resolution(t) == 0:
        # subnormal times: spacings could not be told apart, nor keyed by resolution
        raise ValueError("time grid is too fine: its float resolution underflows to 0")
    return t


def grid_resolution(t: np.ndarray) -> float:
    """Float resolution of the grid times: 64 ulp of the largest |t|.

    Spacings equal to within it share one cached propagator
    (np.linspace spacings differ in the last bits).
    """
    return 64 * np.finfo(float).eps * float(np.max(np.abs(t)))


def propagate_linear(
    me: MasterEquation,
    y0: np.ndarray,
    t: np.ndarray,
    max_step: float | None,
    shift: int,
) -> np.ndarray:
    """y(t_1), y(t_2), ... of dy/dt = L y for the block stack ``y0``, as one
    ``(len(t) - 1, *y0.shape)`` array, with L the :func:`linear_system` of
    ``me`` and ``shift``.

    Without ``max_step`` the state's support S (:func:`invariant_support`
    of ``y0``, read from the exact nonzeros of B and of the jump terms)
    is found first.  Exact path (S of at most ``EXACT_SIZE_LIMIT``
    entries): each grid step applies expm(L[S, S] dt) to the entries S
    of row-major ``y.reshape(-1)``, computed once per distinct spacing,
    and the results are scattered into zeros.  Since S is invariant this
    is exact, not an approximation.  Otherwise fixed-step RK4 applies L
    to the full stack with substeps of at most ``max_step`` (default
    :func:`default_max_step`, which counts the Lamb shift); an explicit
    ``max_step`` makes it the oracle for the exact path and must be > 0.
    """
    if max_step is not None and not max_step > 0:
        raise ValueError("max_step must be > 0")
    rhs, generator, structure = linear_system(me, shift)
    support = invariant_support(y0, structure) if max_step is None else None
    out = np.zeros((len(t) - 1, y0.size), dtype=complex)
    if support is not None and support.size <= EXACT_SIZE_LIMIT:
        L = generator(support)
        resolution = grid_resolution(t)
        cache: dict[int, np.ndarray] = {}
        ys = np.empty((len(t) - 1, support.size), dtype=complex)
        y = y0.reshape(-1)[support]
        for k, dt in enumerate(np.diff(t)):
            key = round(dt / resolution)
            if key not in cache:
                cache[key] = expm(L * dt)
            y = np.matmul(cache[key], y, out=ys[k])
        out[:, support] = ys
        return out.reshape(len(t) - 1, *y0.shape)
    h_max = default_max_step(me) if max_step is None else float(max_step)
    out = out.reshape(len(t) - 1, *y0.shape)
    y = y0
    for k in range(1, len(t)):
        y = out[k - 1] = _rk4_span(rhs, y, t[k - 1], t[k], h_max)
    return out


def check_hygiene(
    series: np.ndarray,
    t: np.ndarray,
    target_trace: float,
    trace_target: float | None,
) -> np.ndarray:
    """Hygiene of propagated states: ``series[k, i]`` is block i at time ``t[k]``.

    The summed trace at each time must stay within ``HYGIENE_TOL`` of
    ``target_trace`` and each block within ``HYGIENE_TOL`` of Hermitian;
    the blocks must then pass :func:`check_states` at 1e-7 with
    ``trace_target``.  One :class:`StatePattern` of the whole series
    serves both, and the Hermiticity defect is computed once.  The
    first failure in time order, then block order, raises
    :class:`IntegrationError`.  Returns the checked Hermitian parts as
    one ``(n_t * n_b, d, d)`` stack, for a :class:`~cobath.core.StateSeries`.
    """
    _, n_b, d, _ = series.shape
    pattern = StatePattern.of(series)
    defect = pattern.hermiticity_defect(series)
    tr = np.trace(series, axis1=-2, axis2=-1).sum(axis=1)
    drift = np.abs(tr.real - target_trace) + np.abs(tr.imag)
    # NaN fails every test written this way; a time's trace comes before its blocks
    bad = ~(defect <= HYGIENE_TOL)
    bad[:, 0] |= ~(drift <= HYGIENE_TOL)
    first = int(np.argmax(bad)) if bad.any() else bad.size
    try:
        # the blocks before the first failure, with their defect (all <= HYGIENE_TOL)
        blocks = series.reshape(-1, d, d)[:first]
        parts = pattern.check(blocks, defect.reshape(-1)[:first], 1e-7, trace_target)
    except StateError as exc:
        first, reason = exc.index, str(exc)
    else:
        if first == bad.size:
            return parts
        k, i = divmod(first, n_b)
        if not drift[k] <= HYGIENE_TOL:
            raise IntegrationError(f"state hygiene lost: trace drift {drift[k]:.3e}", float(t[k]))
        reason = f"hermiticity {defect[k, i]:.3e}"
    k, i = divmod(first, n_b)
    where = f" in block {i}" if n_b > 1 else ""
    raise IntegrationError(f"state hygiene lost{where}: {reason}", float(t[k]))


def integrate(
    me: MasterEquation,
    rho0: DensityMatrix,
    t_grid: np.ndarray,
    max_step: float | None = None,
) -> StateSeries:
    """Evolve a state over an increasing time grid.

    The master equation is the one-block :func:`linear_system`.  Without
    ``max_step`` the state is propagated on its invariant support (the
    entries ``rho0`` reaches under the exact nonzeros of B and of the jump
    terms, see :func:`invariant_support`): up to ``EXACT_SIZE_LIMIT``
    entries exactly, with one cached expm of the restricted Liouvillian
    per grid spacing.  A sector-pure JC state has 1 + 4 n_exc such
    entries.  Above the limit, or with an explicit ``max_step`` (> 0),
    fixed-step RK4 runs on the full state (see :func:`propagate_linear`).
    Returns a :class:`~cobath.core.StateSeries` whose state 0 is ``rho0``
    itself; the other rows are the Hermitian parts of the propagated states,
    checked as one stack by :func:`check_hygiene` (trace target as for
    ``rho0``), and a violation is an :class:`IntegrationError` with the
    failing time.  A one-point grid propagates nothing.
    """
    if me.temperature_mode != "zero":
        raise ValueError("only zero-temperature evolution is implemented")
    if me.tensor.has_nonpositive_frequencies():
        raise ValueError("tensor contains non-positive frequencies; filter it first")
    if rho0.space != me.space:
        raise ValueError("initial state lives on the wrong space")
    t = time_grid(t_grid)
    target = None if rho0.trace_target is None else rho0.trace
    stack = rho0.matrix[None]
    if len(t) > 1:
        # the series is freed once checked: at most two stacks of states are alive at once
        parts = check_hygiene(propagate_linear(me, stack, t, max_step, 0), t[1:], rho0.trace, target)
        stack = np.concatenate([stack, parts])
    return StateSeries(me.space, stack, 1e-7, target, rho0)


def diagonalize_gamma(
    tensor: SpectralTensor,
    couplings: tuple[tuple[EigenOperator, ...], ...],
    rank_tol: float = 1e-12,
) -> list[tuple[float, Operator]]:
    """Rotate each gamma(w) to diagonal form, emitting unit-coefficient jump operators.

    For gamma(w) = V diag(lam) V^dag the operators

        L_k(w) = sqrt(lam_k) sum_b conj(V[b, k]) A_b(w)

    satisfy sum_k L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho} = D(rho)
    exactly; the rebuilt dissipator is tested against the pair-sum form,
    which stays the authority.  One operator per eigenvalue above
    ``rank_tol`` is emitted, so the count equals rank(gamma(w)).
    """
    space = _coupling_space(couplings)
    dim = space.total_dim
    out: list[tuple[float, Operator]] = []
    for w, g in zip(tensor.frequencies, tensor.gamma):
        lam, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
        if lam.size and lam[0] < -GAMMA_PSD_TOL:
            raise ValueError(f"gamma({w}) not positive semidefinite: eigenvalue {lam[0]:.3e}")
        ops = [_coupling_at(couplings, b, w, dim) for b in range(tensor.n_channels)]
        for k in range(len(lam) - 1, -1, -1):  # largest rate first
            if lam[k] <= rank_tol:
                continue
            m = np.zeros((dim, dim), dtype=complex)
            for b in range(tensor.n_channels):
                m = m + np.conj(vecs[b, k]) * ops[b]
            out.append((w, Operator(space, math.sqrt(lam[k]) * m, label=f"L({w:g},{k})")))
    return out


def jump_operators(me: MasterEquation) -> list[Operator]:
    """Unit-coefficient jump operators of the diagonalized dissipator."""
    return [op for _, op in diagonalize_gamma(me.tensor, me.couplings)]
