"""Finite-dimensional operator algebra on composite Hilbert spaces.

Dense complex matrices only.  A JC model with n_exc excitations has
dimension 2 (n_exc + 3), 518 at the n_exc 256 that CI runs; propagation
works on a state's invariant support (1 + 4 n_exc entries for a
sector-pure JC state), not on all d^2 entries, so the operators stay dense.
All container types are immutable after construction and safe to share
between threads or worker processes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

__all__ = [
    "HilbertSpace",
    "Operator",
    "DensityMatrix",
    "StateSeries",
    "StateError",
    "check_states",
    "StatePattern",
    "hermiticity_defect",
    "KetState",
    "embed",
    "basis_index",
    "basis_ket",
]

DEFAULT_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HilbertSpace:
    """Composite space as an ordered tensor product of finite factors.

    The factor order is fixed; all operators sharing a space use the same
    ordering (e.g. ``[2, n_max + 1]`` for atom (x) truncated field mode).
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"factor dims must be positive integers, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        return prod(self.factor_dims)

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)


@dataclass(frozen=True)
class Operator:
    """Square complex matrix attached to a Hilbert space."""

    space: HilbertSpace
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(
                f"operator {self.label!r}: matrix shape {m.shape} does not match space dim {d}"
            )
        object.__setattr__(self, "matrix", _freeze(m))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T, label=f"{self.label}^dag")

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)

    def _check_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")


class StateError(ValueError):
    """A stack of states failed :func:`check_states`; ``index`` is the first failing state."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def hermiticity_defect(m: np.ndarray) -> np.ndarray:
    """max |m - m^dag| of each matrix of a stack; not finite where an entry is not."""
    re, im = m.real, m.imag
    out = re - re.swapaxes(-1, -2)
    np.hypot(out, im + im.swapaxes(-1, -2), out=out)
    return out.max(axis=(-2, -1))


def _components(nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric pattern of a (d, d) nonzero mask with its diagonal, and
    the least index of each index's connected component."""
    d = len(nonzero)
    pattern = nonzero | nonzero.T
    np.fill_diagonal(pattern, True)
    # each index takes the least label among its neighbours, then that
    # label's own label; labels only fall, and stop at the least index.
    # While labels are the indices, the least is the first neighbour.
    label, new = np.arange(d), pattern.argmax(axis=1)
    while True:
        new = new[new]
        if not new.any() or np.array_equal(new, label):
            return pattern, new
        label, new = new, np.where(pattern, new, d).min(axis=1)


class StatePattern(NamedTuple):
    """The exact nonzero pattern of a stack of d x d matrices, split into
    the connected components of its index graph.

    The pattern is the union over the stack of the entries that are not
    exactly 0 (NaN counts), made symmetric, plus the diagonal.  Outside
    it every matrix is 0, so up to a permutation each matrix is the
    direct sum of its component blocks and its spectrum is their union.
    ``groups`` holds one ``(c, s)`` index array per component size s;
    ``entries`` the pattern's (row, col) pairs with row <= col, or None
    when one component spans every index and nothing is gathered.
    """

    groups: tuple[np.ndarray, ...]
    entries: tuple[np.ndarray, np.ndarray] | None

    @classmethod
    def of(cls, m: np.ndarray) -> "StatePattern":
        """The pattern of a stack ``(..., d, d)``, over all its leading axes."""
        d = m.shape[-1]
        flat = m.reshape(-1, d, d)
        # a union of patterns only merges components: when the first matrix
        # spans every index alone, so does the stack, and the rest is not read
        pattern, label = _components(np.any(flat[:1], axis=0))
        if label.any() and len(flat) > 1:
            pattern, label = _components(np.any(flat, axis=0))
        if not label.any():
            return cls((np.arange(d)[None],), None)
        size = np.bincount(label, minlength=d)  # nonzero at each component's label
        groups = []
        for s in np.flatnonzero(np.bincount(size)[1:]) + 1:
            roots = np.flatnonzero(size == s)
            # row r: the indices labelled roots[r], in increasing order
            groups.append(np.nonzero(label == roots[:, None])[1].reshape(-1, s))
        rows, cols = np.nonzero(pattern)
        upper = rows <= cols
        return cls(tuple(groups), (rows[upper], cols[upper]))

    def hermiticity_defect(self, m: np.ndarray) -> np.ndarray:
        """:func:`hermiticity_defect` of a stack this pattern covers, over the
        pattern's entries only (elsewhere m - m^dag is exactly 0)."""
        if self.entries is None:
            return hermiticity_defect(m)
        rows, cols = self.entries
        upper, lower = m[..., rows, cols], m[..., cols, rows]
        out = upper.real - lower.real
        np.hypot(out, upper.imag + lower.imag, out=out)
        return out.max(axis=-1)

    def min_eigenvalues(self, h: np.ndarray) -> np.ndarray:
        """The least eigenvalue of each Hermitian matrix of an ``(n, d, d)``
        stack this pattern covers: the real diagonal for size-1 components,
        (a + d)/2 - hypot((a - d)/2, |b|) for size-2 blocks [[a, b], [b*, d]],
        and one stacked ``eigvalsh`` per larger component size."""
        if self.entries is None:
            return np.linalg.eigvalsh(h)[:, 0]
        least = None
        for idx in self.groups:
            if idx.shape[1] == 1:
                evals = h[:, idx[:, 0], idx[:, 0]].real
            elif idx.shape[1] == 2:
                i, j = idx[:, 0], idx[:, 1]
                a, d = h[:, i, i].real, h[:, j, j].real
                evals = (a + d) / 2 - np.hypot((a - d) / 2, np.abs(h[:, i, j]))
            else:
                evals = np.linalg.eigvalsh(h[:, idx[:, :, None], idx[:, None, :]])[..., 0]
            evals = evals.min(axis=1)
            least = evals if least is None else np.minimum(least, evals)
        return least

    def check(
        self, m: np.ndarray, herm: np.ndarray, tolerance: float, trace_target: float | None
    ) -> np.ndarray:
        """:func:`check_states` on an ``(n, d, d)`` stack this pattern covers,
        with ``herm`` its :meth:`hermiticity_defect`."""
        tol = float(tolerance)
        if tol < 0:
            raise ValueError("tolerance must be non-negative")
        tr = np.trace(m, axis1=-2, axis2=-1)
        if trace_target is None:
            trace_ok = (tr.real <= 1.0 + tol) & (tr.real >= -tol)
        else:
            trace_ok = np.abs(tr.real - trace_target) <= tol
        # every comparison with NaN is False, so a non-finite state fails here
        ok = (herm <= tol) & (np.abs(tr.imag) <= tol) & trace_ok
        k = len(ok) if ok.all() else int(np.argmin(ok))
        h = _hermitian_parts(m)
        # the eigensolver sees only the states before the first failure, all finite
        evals = self.min_eigenvalues(h[:k])
        if np.any(evals < -tol):
            j = int(np.argmax(evals < -tol))
            raise StateError(f"density matrix has negative eigenvalue {evals[j]:.3e}", j)
        if k == len(ok):
            return h
        t_k = complex(tr[k])
        reasons = (
            (not np.isfinite(m[k]).all(), "density matrix has non-finite entries"),
            (not herm[k] <= tol, f"density matrix not Hermitian: max |rho - rho^dag| = {herm[k]:.3e}"),
            (not abs(t_k.imag) <= tol, f"density matrix trace has imaginary part {t_k.imag:.3e}"),
            (trace_target is None, f"sub-normalized block must have trace in [0, 1], got {t_k.real!r}"),
            (True, f"trace {t_k.real!r} differs from declared trace {trace_target!r}"),
        )
        raise StateError(next(reason for failed, reason in reasons if failed), k)


def _hermitian_parts(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2, halved through the float view: a real multiply
    where ``h /= 2.0`` would be a complex division."""
    h = np.conj(m.swapaxes(-1, -2), order="C")
    h += m
    floats = h.view(float)
    floats *= 0.5
    return h


def check_states(
    m: np.ndarray, tolerance: float = DEFAULT_TOL, trace_target: float | None = 1.0
) -> np.ndarray:
    """The one state check, made over a whole ``(n, d, d)`` stack at once.

    Each state must be finite and Hermitian, have a real trace equal to
    ``trace_target`` (in [0, 1] when None) and no eigenvalue of its
    Hermitian part below ``-tolerance``, all within ``tolerance``.  The
    eigenvalue floor and the Hermiticity defect are taken per connected
    component of the stack's exact nonzero pattern (:class:`StatePattern`),
    which is exact.  Raises :class:`StateError` for the first failing
    state; returns the Hermitian parts (m + m^dag) / 2.
    """
    m = np.asarray(m, dtype=complex)
    pattern = StatePattern.of(m)
    return pattern.check(m, pattern.hermiticity_defect(m), tolerance, trace_target)


@dataclass(frozen=True)
class DensityMatrix:
    """State matrix with hygiene checks (:func:`check_states`) at construction.

    ``trace_target=1.0`` is a full state; ``trace_target=None`` admits
    sub-normalized conditional blocks (trace <= 1).
    """

    space: HilbertSpace
    matrix: np.ndarray
    tolerance: float = DEFAULT_TOL
    trace_target: float | None = 1.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(f"density matrix shape {m.shape} does not match space dim {d}")
        check_states(m[None], self.tolerance, self.trace_target)
        object.__setattr__(self, "matrix", _freeze(m))

    @classmethod
    def stack(
        cls,
        space: HilbertSpace,
        m: np.ndarray,
        tolerance: float = DEFAULT_TOL,
        trace_target: float | None = 1.0,
    ) -> "StateSeries":
        """The states of an ``(n, d, d)`` stack, checked in one pass, as a :class:`StateSeries`
        of their Hermitian parts (identical for an exactly Hermitian entry).  Raises
        :class:`StateError` naming the first failing entry."""
        m = np.asarray(m, dtype=complex)
        d = space.total_dim
        if m.ndim != 3 or m.shape[1:] != (d, d):
            raise ValueError(f"state stack shape {m.shape} does not match space dim {d}")
        return StateSeries(space, check_states(m, tolerance, trace_target), tolerance, trace_target)

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


@dataclass(frozen=True, eq=False)
class StateSeries(Sequence):
    """States checked as one stack: ``matrices``, the frozen ``(n, d, d)``
    Hermitian parts the check returned for ``tolerance`` and ``trace_target``,
    read as :class:`DensityMatrix` views of its rows, not checked again.  A slice
    is the series over its rows; ``first``, if set, is the state at row 0."""

    space: HilbertSpace
    matrices: np.ndarray
    tolerance: float
    trace_target: float | None
    first: DensityMatrix | None = None

    def __post_init__(self):
        self.matrices.setflags(write=False)

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, k):
        rows = range(len(self.matrices))[k]  # an int or a range; IndexError as for a list
        if isinstance(rows, range):
            first = self.first if rows[:1] == range(1) else None
            return StateSeries(self.space, self.matrices[k], self.tolerance, self.trace_target, first)
        if rows == 0 and self.first is not None:
            return self.first
        rho = object.__new__(DensityMatrix)  # checked with the stack: __post_init__ is not run again
        rho.__dict__.update(space=self.space, matrix=self.matrices[rows],
                            tolerance=self.tolerance, trace_target=self.trace_target)
        return rho


@dataclass(frozen=True)
class KetState:
    """Pure state vector; sub-normalized amplitudes are allowed."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.shape != (self.space.total_dim,):
            raise ValueError(
                f"amplitude vector length {v.size} does not match space dim {self.space.total_dim}"
            )
        n = float(np.linalg.norm(v))
        if n > 1.0 + 1e-9:
            raise ValueError(f"ket norm {n!r} exceeds 1")
        object.__setattr__(self, "amplitudes", _freeze(v))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def projector(self, tolerance: float = DEFAULT_TOL) -> DensityMatrix:
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        target = 1.0 if abs(self.norm() - 1.0) <= tolerance else None
        return DensityMatrix(self.space, m, tolerance=tolerance, trace_target=target)


def embed(local: np.ndarray, space: HilbertSpace, factor: int, label: str = "") -> Operator:
    """Lift a single-factor matrix into the full space: I (x) ... (x) local (x) ... (x) I."""
    dims = space.factor_dims
    if not 0 <= factor < len(dims):
        raise ValueError(f"factor index {factor} out of range for {len(dims)} factors")
    local = np.asarray(local, dtype=complex)
    if local.shape != (dims[factor], dims[factor]):
        raise ValueError(
            f"local matrix shape {local.shape} does not match factor dim {dims[factor]}"
        )
    before = np.eye(prod(dims[:factor]), dtype=complex)
    after = np.eye(prod(dims[factor + 1:]), dtype=complex)
    # kron(kron(before, local), after) as one broadcast: the same products, in the same order
    m = (
        before[:, None, None, :, None, None]
        * local[None, :, None, None, :, None]
        * after[None, None, :, None, None, :]
    )
    n = space.total_dim
    return Operator(space, m.reshape(n, n), label=label)


def basis_index(space: HilbertSpace, indices: tuple[int, ...]) -> int:
    """Flat index of |i_0, i_1, ...>: mixed radix, first factor slowest (np.kron order)."""
    if len(indices) != space.n_factors:
        raise ValueError(f"need {space.n_factors} indices, got {len(indices)}")
    flat = 0
    for i, d in zip(indices, space.factor_dims):
        if not 0 <= i < d:
            raise ValueError(f"index {i} out of range for factor dim {d}")
        flat = flat * d + i
    return flat


def basis_ket(space: HilbertSpace, indices: tuple[int, ...]) -> KetState:
    """Product basis state |i_0, i_1, ...> with one index per factor."""
    v = np.zeros(space.total_dim, dtype=complex)
    v[basis_index(space, indices)] = 1.0
    return KetState(space, v)
