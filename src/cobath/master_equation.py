"""Markovian master equation with a cross-correlated decay-rate tensor.

The generator is

    d rho / dt = -i [H_S, rho] + D(rho)

with the dissipator summing over frequencies and channel pairs:

    D(rho) = sum_w sum_{a,b} gamma_{a,b}(w)
             ( A_b(w) rho A_a(w)^dag - 1/2 {A_a(w)^dag A_b(w), rho} ).

Off-diagonal gamma entries encode channels that share an environment and
are the source of the cooperative effects this package targets.  The
model is the zero-temperature one: :class:`MasterEquation` rejects a
tensor with rates at non-positive frequencies (absorption), which
:func:`apply_t0_filter` removes, so every jump emits.  An
environment-induced energy shift, where one is wanted, is part of the
Hamiltonian ``H_S``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
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

__all__ = [
    "EigenOperator",
    "SpectralTensor",
    "MasterEquation",
    "IntegrationError",
    "apply_t0_filter",
    "integrate",
    "diagonalize_gamma",
    "jump_operators",
]

GAMMA_HERM_TOL = 1e-12
GAMMA_PSD_TOL = 1e-10
FREQ_MATCH_TOL = 1e-9
# rate-matrix eigenvalues at or below this emit no jump operator
RANK_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Numerical failure during time evolution; carries the failing time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


@dataclass(frozen=True)
class SpectralTensor:
    """Per-frequency rate matrices gamma(w).

    The frequencies must be finite and each gamma(w) finite, Hermitian and
    positive semidefinite: cross rates beyond the Cauchy-Schwarz bound
    |gamma_12|^2 <= gamma_11 gamma_22 make the equation unphysical and are
    rejected, not warned about.
    """

    frequencies: tuple[float, ...]
    gamma: tuple[np.ndarray, ...]

    def __post_init__(self):
        freqs = tuple(float(w) for w in self.frequencies)
        if len(freqs) != len(self.gamma):
            raise ValueError("one gamma matrix required per frequency")
        for w in freqs:
            if not math.isfinite(w):  # NaN would pass every order check below
                raise ValueError(f"tensor frequency {w!r} is not finite")
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
            if not np.isfinite(g).all():  # NaN would pass both checks below
                raise ValueError(f"gamma({w}) has non-finite entries")
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

    @property
    def n_channels(self) -> int:
        return self.gamma[0].shape[0] if self.gamma else 0


@dataclass(frozen=True)
class EigenOperator:
    """Single-frequency component A(w) of a coupling operator, with
    [H, A(w)] = -w A(w) for the system Hamiltonian H.

    ``source_index`` identifies which coupling channel the component came
    from when several operators couple to the same environment.
    """

    frequency: float
    op: Operator
    source_index: int = 0


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
        dags = [op.conj().T for op in ops]
        for a in range(c.shape[0]):
            for b in range(c.shape[0]):
                rate = complex(c[a, b])
                if rate != 0:
                    terms.append(ChannelTerm(w, rate, ops[b], dags[a]))
    return tuple(terms)


def emitting_frequencies(couplings: tuple[tuple[EigenOperator, ...], ...]) -> list[float]:
    """The distinct positive frequencies of the channels' components,
    rounded to 12 decimals, in ascending order."""
    emitting = [eo.frequency for fam in couplings for eo in fam if eo.frequency > FREQ_MATCH_TOL]
    return sorted({round(w, 12) for w in emitting})


def _pair_sum(terms: tuple[ChannelTerm, ...], dim: int) -> np.ndarray:
    """sum over the terms of coefficient * A_a^dag A_b."""
    out = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        out = out + term.rate * (term.A_a_dag @ term.A_b)
    return out


@dataclass(frozen=True)
class MasterEquation:
    """Assembled generator: Hamiltonian, channels, tensor.

    ``couplings[a]`` is the family of frequency components of channel a.
    ``terms`` is the channel-term list of the tensor, ``K`` the matrix
    sum gamma_ab A_a^dag A_b and ``B`` = H_S - (i/2) (K + K^dag)/2 the
    no-jump generator; every generator form is built from these.
    Immutable after assembly; integrations of the same object may run
    concurrently.  A tensor frequency at or below ``FREQ_MATCH_TOL`` is a
    ValueError (the model is the zero-temperature one: filter the tensor
    with :func:`apply_t0_filter` first), and so are a B with a non-finite
    entry and a positive tensor frequency at which no channel has a
    component: its rates would act on no operator and silently vanish.
    """

    H_S: Operator
    couplings: tuple[tuple[EigenOperator, ...], ...]
    tensor: SpectralTensor
    terms: tuple[ChannelTerm, ...] = field(init=False, repr=False, compare=False)
    K: np.ndarray = field(init=False, repr=False, compare=False)
    B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(w <= FREQ_MATCH_TOL for w in self.tensor.frequencies):
            raise ValueError("tensor contains non-positive frequencies; filter it first")
        fams = tuple(tuple(f) for f in self.couplings)
        if len(fams) != self.tensor.n_channels:
            raise ValueError(
                f"{len(fams)} coupling families for {self.tensor.n_channels} tensor channels"
            )
        for fam in fams:
            for eo in fam:
                if eo.op.space != self.H_S.space:
                    raise ValueError("coupling operator space mismatch")
        acts = emitting_frequencies(fams)
        for w in self.tensor.frequencies:
            if w > FREQ_MATCH_TOL and not any(abs(f - w) <= FREQ_MATCH_TOL for f in acts):
                raise ValueError(
                    f"no coupling component at tensor frequency {w!r} (the channels act at {acts})"
                )
        object.__setattr__(self, "couplings", fams)
        dim = self.space.total_dim
        terms = _channel_terms(fams, self.tensor.frequencies, self.tensor.gamma, dim)
        K = _pair_sum(terms, dim)
        B = self.H_S.matrix - 0.5j * ((K + K.conj().T) / 2.0)
        if not np.isfinite(B).all():
            raise ValueError("no-jump generator B has non-finite entries")
        K.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "B", B)

    @property
    def space(self) -> HilbertSpace:
        return self.H_S.space


def apply_t0_filter(tensor: SpectralTensor) -> SpectralTensor:
    """Drop all non-positive-frequency entries (no absorption at zero temperature).

    Idempotent: filtering an already-filtered tensor returns an equal tensor.
    """
    keep = [i for i, w in enumerate(tensor.frequencies) if w > FREQ_MATCH_TOL]
    return SpectralTensor(
        tuple(tensor.frequencies[i] for i in keep), tuple(tensor.gamma[i] for i in keep)
    )


def kron_on(
    dim: int, rows: np.ndarray, cols: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(X, Y) -> kron(X, Y)[rows, cols] for flat row-major indices of a dim x dim
    matrix, ``rows`` and ``cols`` broadcast together.

    Entry for entry the same products as ``np.kron``, without building it.
    """
    i, j = np.divmod(rows, dim)
    k, l = np.divmod(cols, dim)
    return lambda x, y: x[i, k] * y[j, l]


def jump_superoperator(terms: tuple[ChannelTerm, ...], kron) -> np.ndarray:
    """rho -> sum_terms gamma_ab A_b rho A_a^dag as a matrix on row-major vec(rho).

    ``kron`` is ``np.kron`` or a restriction from :func:`kron_on`; with no
    terms the result is the scalar 0.0.
    """
    out = 0.0
    for term in terms:
        out = out + term.rate * kron(term.A_b, term.A_a_dag.T)
    return out


class Structure(tuple):
    """The terms of a generator as (X, Y) pairs, each mapping rho to X rho Y,
    and their one-step reach: the flat row-major entry i d + j of a d x d
    matrix reaches k d + l when X[k, i] != 0 and Y[j, l] != 0 for some term.
    Only exact zeros are read (NaN counts as nonzero), once per array the
    terms hold; the set an entry reaches is kept once computed, for the
    support search and the restricted generator alike."""

    def reach(self, e: int) -> set[int]:
        """The entries that entry ``e`` reaches in one step."""
        if e not in self._seen:
            d, terms, lists = self._patterns
            i, j = divmod(e, d)
            self._seen[e] = {
                k + l for x, y in terms for k in lists[x + i] for l in lists[y + j]
            }
        return self._seen[e]

    @cached_property
    def _seen(self) -> dict[int, set[int]]:
        return {}

    @cached_property
    def _patterns(self) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
        """d, each term's two slots as row offsets, and the stacked rows: row
        s d + r of a slot lists, for X, the rows k with X[k, r] != 0 as k d,
        and for Y the columns l with Y[r, l] != 0."""
        d = len(self[0][0])
        slots: dict[tuple[int, bool], int] = {}  # terms share their arrays
        mats, scale = [], []

        def slot(m: np.ndarray, is_x: bool) -> int:
            if (id(m), is_x) not in slots:
                slots[id(m), is_x] = len(mats)
                mats.append((m != 0).T if is_x else m != 0)
                scale.append(d if is_x else 1)
            return slots[id(m), is_x] * d

        terms = [(slot(x, True), slot(y, False)) for x, y in self]
        rows, cols = np.divmod(np.flatnonzero(mats), d)  # one call: np.nonzero is slower
        ends = np.cumsum(np.bincount(rows, minlength=len(mats) * d)).tolist()
        cols = (cols * np.repeat(scale, d)[rows]).tolist()
        return d, terms, [cols[a:b] for a, b in zip([0, *ends], ends)]


def linear_system(me: MasterEquation):
    """The zero-temperature master equation as a linear system,

        d rho / dt = -i (B rho - rho B^dag) + J(rho),

    from ``me.B`` and ``me.terms``.  Returns ``generator(support)`` (the
    matrix on those flat row-major entries of vec(rho)) and the
    :class:`Structure` that :func:`invariant_support` reads: the
    generator's terms as (X, Y) pairs, each mapping rho to X rho Y.  The
    generator is computed only at the entries (p, q) that some term maps q
    to, with the products and sums of the ``kron`` assembly at each; every
    other entry of that assembly is exactly +0 (its products are zeros, and
    the jump sum starts from 0.0).
    """
    d = me.space.total_dim
    b = me.B
    eye = np.eye(d)
    structure = Structure([(b, eye), (eye, b.conj().T)] + [(t.A_b, t.A_a_dag) for t in me.terms])

    def generator(support: np.ndarray) -> np.ndarray:
        entries = support.tolist()
        at = {e: n for n, e in enumerate(entries)}
        # column q holds the entries of the support that entry q reaches
        reached = [structure.reach(e) & at.keys() for e in entries]
        cols = np.repeat(np.arange(len(entries)), [len(r) for r in reached])
        rows = np.fromiter((at[p] for r in reached for p in r), dtype=np.intp, count=len(cols))
        kron = kron_on(d, support[rows], support[cols])
        eye = np.eye(d, dtype=complex)
        out = np.zeros((support.size, support.size), dtype=complex)
        out[rows, cols] = -1j * (kron(b, eye) - kron(eye, b.conj())) + jump_superoperator(
            me.terms, kron
        )
        return out

    return generator, structure


def invariant_support(y0: np.ndarray, structure: Structure) -> np.ndarray:
    """Flat row-major indices of the smallest coordinate subspace that holds
    the d x d state ``y0`` and that the generator maps into itself.

    ``structure`` is the generator's :class:`Structure` (its terms as
    (X, Y) pairs, each mapping rho to X rho Y).  Only exact zeros of X and
    Y are read, so an entry at roundoff level counts.  On an invariant
    subspace S, expm(L)[S, S] = expm(L[S, S]) and entries outside S stay
    exactly 0.  A worklist search: each entry reached is expanded once, at
    the cost of the terms' nonzeros in its row and column.
    """
    d = y0.shape[-1]
    reached = set(np.flatnonzero(y0).tolist())
    todo = list(reached)
    while todo and len(reached) < d * d:
        new = structure.reach(todo.pop()) - reached
        reached |= new
        todo.extend(new)
    return np.sort(np.fromiter(reached, dtype=np.intp, count=len(reached)))


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


def spacing_classes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spacings of the grid ``t`` grouped by their key
    round(dt / :func:`grid_resolution`), half to even, all keyed in one
    array operation: ``first[c]`` is the index of the first spacing of
    class c and ``of[k]`` the class of spacing k.

    The spacings of a class share one cached propagator, built from the
    class's first spacing.
    """
    keys = np.rint(np.diff(t) / grid_resolution(t))
    _, first, of = np.unique(keys, return_index=True, return_inverse=True)
    return first, of


def propagate_linear(me: MasterEquation, y0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """rho(t_1), rho(t_2), ... of d rho/dt = L rho from the d x d state ``y0``,
    as one ``(len(t) - 1, d, d)`` array, with L the :func:`linear_system` of
    ``me``.

    The state's support S (:func:`invariant_support` of ``y0``, read from
    the exact nonzeros of B and of the jump terms) is found first.  Each
    grid step applies expm(L[S, S] dt) to the entries S of row-major
    ``y0.reshape(-1)``, computed once per class of :func:`spacing_classes`,
    and the results are scattered into zeros.  Since S is invariant this
    is exact, not an approximation.  The cost is one dense |S| x |S|
    ``expm`` per spacing class (about |S|^3 operations and 16 |S|^2 bytes
    each) and one |S| gemv per grid step.
    """
    generator, structure = linear_system(me)
    support = invariant_support(y0, structure)
    out = np.zeros((len(t) - 1, *y0.shape), dtype=complex)
    L = generator(support)
    dts = np.diff(t)
    first, of = spacing_classes(t)
    steps = [expm(L * dts[k]) for k in first]
    ys = np.empty((len(t) - 1, support.size), dtype=complex)
    y = y0.reshape(-1)[support]
    # ndarray.dot: one gemv per step into its output row, the bits of
    # np.matmul without the ufunc dispatch
    for k, c in enumerate(of.tolist()):
        y = steps[c].dot(y, out=ys[k])
    out.reshape(len(t) - 1, -1)[:, support] = ys
    return out


def check_hygiene(
    series: np.ndarray,
    t: np.ndarray,
    target_trace: float,
    trace_target: float | None,
) -> np.ndarray:
    """Hygiene of propagated states: ``series[k]`` is the d x d state at time ``t[k]``.

    Each state's trace must stay within ``HYGIENE_TOL`` of
    ``target_trace`` and the state within ``HYGIENE_TOL`` of Hermitian;
    the states must then pass :func:`check_states` at 1e-7 with
    ``trace_target``.  One :class:`StatePattern` of the whole series
    serves both, and the Hermiticity defect is computed once.  The
    first failure in time order raises :class:`IntegrationError`; at
    one time, trace drift is reported before any other failure.
    Returns the checked Hermitian parts as one ``(n_t, d, d)`` stack,
    for a :class:`~cobath.core.StateSeries`.
    """
    pattern = StatePattern.of(series)
    defect = pattern.hermiticity_defect(series)
    tr = np.trace(series, axis1=-2, axis2=-1)
    drift = np.abs(tr.real - target_trace) + np.abs(tr.imag)
    # NaN fails every test written this way
    bad = ~(defect <= HYGIENE_TOL) | ~(drift <= HYGIENE_TOL)
    first = int(np.argmax(bad)) if bad.any() else len(bad)
    try:
        # the states before the first failure, with their defect (all <= HYGIENE_TOL)
        parts = pattern.check(series[:first], defect[:first], 1e-7, trace_target)
    except StateError as exc:
        first, reason = exc.index, str(exc)
    else:
        if first == len(bad):
            return parts
        if not drift[first] <= HYGIENE_TOL:
            raise IntegrationError(
                f"state hygiene lost: trace drift {drift[first]:.3e}", float(t[first])
            )
        reason = f"hermiticity {defect[first]:.3e}"
    raise IntegrationError(f"state hygiene lost: {reason}", float(t[first]))


def integrate(me: MasterEquation, rho0: DensityMatrix, t_grid: np.ndarray) -> StateSeries:
    """Evolve a state over an increasing time grid.

    The master equation is the :func:`linear_system`, propagated exactly on
    the state's invariant support (the entries ``rho0`` reaches under the
    exact nonzeros of B and of the jump terms, see :func:`invariant_support`)
    with one cached expm of the restricted Liouvillian per grid spacing (see
    :func:`propagate_linear`).  A sector-pure JC state has 1 + 4 n_exc such
    entries.  Returns a :class:`~cobath.core.StateSeries` whose state 0 is ``rho0``
    itself; the other rows are the Hermitian parts of the propagated states,
    checked as one stack by :func:`check_hygiene` (trace target as for
    ``rho0``), and a violation is an :class:`IntegrationError` with the
    failing time.  A one-point grid propagates nothing.
    """
    if rho0.space != me.space:
        raise ValueError("initial state lives on the wrong space")
    t = time_grid(t_grid)
    target = None if rho0.trace_target is None else rho0.trace
    stack = rho0.matrix[None]
    if len(t) > 1:
        # the series is freed once checked: at most two stacks of states are alive at once
        parts = check_hygiene(
            propagate_linear(me, rho0.matrix, t), t[1:], rho0.trace, target
        )
        stack = np.concatenate([stack, parts])
    return StateSeries(me.space, stack, 1e-7, target, rho0)


def diagonalize_gamma(
    tensor: SpectralTensor, couplings: tuple[tuple[EigenOperator, ...], ...]
) -> list[tuple[float, Operator]]:
    """Rotate each gamma(w) to diagonal form, emitting unit-coefficient jump operators.

    For gamma(w) = V diag(lam) V^dag the operators

        L_k(w) = sqrt(lam_k) sum_b conj(V[b, k]) A_b(w)

    satisfy sum_k L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho} = D(rho)
    exactly; the rebuilt dissipator is tested against the pair-sum form,
    which stays the authority.  One operator per eigenvalue above
    ``RANK_TOL`` is emitted, so the count equals rank(gamma(w)); each
    gamma(w) is PSD, as :class:`SpectralTensor` checked.
    """
    space = _coupling_space(couplings)
    dim = space.total_dim
    out: list[tuple[float, Operator]] = []
    for w, g in zip(tensor.frequencies, tensor.gamma):
        lam, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
        ops = [_coupling_at(couplings, b, w, dim) for b in range(tensor.n_channels)]
        for k in range(len(lam) - 1, -1, -1):  # largest rate first
            if lam[k] <= RANK_TOL:
                continue
            m = np.zeros((dim, dim), dtype=complex)
            for b in range(tensor.n_channels):
                m = m + np.conj(vecs[b, k]) * ops[b]
            out.append((w, Operator(space, math.sqrt(lam[k]) * m, label=f"L({w:g},{k})")))
    return out


def jump_operators(me: MasterEquation) -> list[Operator]:
    """Unit-coefficient jump operators of the diagonalized dissipator."""
    return [op for _, op in diagonalize_gamma(me.tensor, me.couplings)]
