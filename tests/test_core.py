from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobath.core import (
    DensityMatrix,
    HilbertSpace,
    KetState,
    Operator,
    StateError,
    StatePattern,
    StateSeries,
    _hermitian_parts,
    basis_ket,
    check_states,
    embed,
)
from conftest import hermitian_parts_by_division, random_density, random_unitary
from operator_reference import identity, make_atom_ops, make_cavity_ops, partial_trace, tensor_product


def test_space_dims():
    sp = HilbertSpace((2, 4))
    assert sp.total_dim == 8
    assert sp.n_factors == 2
    with pytest.raises(ValueError):
        HilbertSpace((2, 0))


def test_operator_shape_check():
    sp = HilbertSpace((2,))
    with pytest.raises(ValueError):
        Operator(sp, np.eye(3))


def test_tensor_identity():
    i2 = identity(HilbertSpace((2,)))
    i3 = identity(HilbertSpace((3,)))
    out = tensor_product(i2, i3)
    assert out.space.total_dim == 6
    np.testing.assert_array_equal(out.matrix, np.eye(6))


def test_tensor_sigma_z_spectrum():
    sp2 = HilbertSpace((2,))
    sz = Operator(sp2, np.diag([1.0, -1.0]))
    out = tensor_product(sz, identity(sp2))
    evals = np.sort(np.linalg.eigvalsh(out.matrix))
    np.testing.assert_allclose(evals, [-1, -1, 1, 1])


def test_tensor_ladder_action():
    # (S_+ (x) a) flips |-,1> to |+,0>
    sp = HilbertSpace((2, 3))
    atom = make_atom_ops(sp, 0)
    cav = make_cavity_ops(sp, 1)
    op = atom["S_plus"] @ cav["a"]
    src = basis_ket(sp, (1, 1)).amplitudes
    dst = basis_ket(sp, (0, 0)).amplitudes
    np.testing.assert_allclose(op.matrix @ src, dst, atol=1e-15)


def test_number_operator_eigenvalue():
    sp = HilbertSpace((2, 5))
    cav = make_cavity_ops(sp, 1)
    ket = basis_ket(sp, (0, 3)).amplitudes
    np.testing.assert_allclose((cav["a_dag"] @ cav["a"]).matrix @ ket, 3 * ket)


def test_commutator_truncation():
    # canonical below the ceiling, -n_max on the last level
    sp = HilbertSpace((2, 4))
    cav = make_cavity_ops(sp, 1)
    comm = (cav["a"] @ cav["a_dag"] - cav["a_dag"] @ cav["a"]).matrix
    local = comm[:4, :4]  # atom-excited block, one copy of the mode factor
    np.testing.assert_allclose(np.diag(local)[:3], np.ones(3), atol=1e-15)
    assert local[3, 3] == pytest.approx(-3.0)


@pytest.mark.parametrize("dims", [(5,), (2, 4), (4, 2), (2, 3, 4)])
def test_embed_is_bitwise_the_kron_chain(dims, rng):
    space = HilbertSpace(dims)
    for factor, n in enumerate(dims):
        local = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        local[0, 0] = complex(-0.0, -0.0)  # signed zeros must come out the same
        before = np.eye(prod(dims[:factor]), dtype=complex)
        after = np.eye(prod(dims[factor + 1:]), dtype=complex)
        want = np.kron(np.kron(before, local), after)
        got = embed(local, space, factor).matrix
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_two_level_ceiling():
    sp = HilbertSpace((2, 2))
    atom = make_atom_ops(sp, 0)
    excited = basis_ket(sp, (0, 0)).amplitudes
    np.testing.assert_array_equal(atom["S_plus"].matrix @ excited, np.zeros(4))


def test_atom_ops_need_two_level_factor():
    with pytest.raises(ValueError):
        make_atom_ops(HilbertSpace((3, 2)), 0)


def test_cavity_needs_two_levels():
    with pytest.raises(ValueError):
        make_cavity_ops(HilbertSpace((2, 1)), 1)


def test_dagger_is_exact_conjugate_transpose(rng):
    sp = HilbertSpace((2, 3))
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op = Operator(sp, m)
    dag = op.dagger()
    assert np.array_equal(dag.matrix, m.conj().T)
    assert np.array_equal(dag.dagger().matrix, op.matrix)


def test_density_matrix_validation(rng):
    sp = HilbertSpace((2,))
    with pytest.raises(ValueError):
        DensityMatrix(sp, np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(sp, np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(sp, np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(sp, np.diag([np.nan, np.nan]))
    DensityMatrix(sp, np.diag([0.25, 0.25]), trace_target=None)  # conditional block


def _break_state(kind, rho, rng):
    """A copy of a valid state broken in one way."""
    m = rho.copy()
    if kind == "not Hermitian":
        m[0, 1] += 1e-6
    elif kind == "differs from declared trace":
        m *= 1.01
    elif kind == "imaginary part":
        # Hermiticity defect 0.8e-9 passes the 1e-9 tolerance, the trace's 1.6e-9 does not
        m[np.diag_indices(4)] += 0.4e-9j
    elif kind == "negative eigenvalue":
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        m = u @ np.diag([0.7, 0.4, -0.1, 0.0]) @ u.conj().T
    else:
        m[1, 2] = np.nan
    return m


@pytest.mark.parametrize(
    "kind",
    ["not Hermitian", "differs from declared trace", "imaginary part", "negative eigenvalue",
     "non-finite"],
)
def test_check_states_reports_first_broken_state(kind, rng):
    sp = HilbertSpace((4,))
    stack = np.array([random_density(rng, 4) for _ in range(9)])
    np.testing.assert_array_equal(check_states(stack), (stack + stack.conj().swapaxes(1, 2)) / 2)
    for k in (0, 4, 8):
        bad = stack.copy()
        bad[k] = _break_state(kind, stack[k], rng)
        with pytest.raises(StateError, match=kind) as err:
            check_states(bad)
        assert err.value.index == k
        with pytest.raises(StateError, match=kind) as err:
            DensityMatrix.stack(sp, bad)
        assert err.value.index == k
        with pytest.raises(ValueError, match=kind):
            DensityMatrix(sp, bad[k])


def dense_check_states(m, tolerance, trace_target):
    """The state check with one dense eigvalsh per full d x d matrix: the
    oracle for the per-component check.  Returns (Hermitian parts, least
    eigenvalue of each) or raises StateError."""
    herm = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = np.trace(m, axis1=-2, axis2=-1)
    if trace_target is None:
        trace_ok = (tr.real <= 1.0 + tolerance) & (tr.real >= -tolerance)
    else:
        trace_ok = np.abs(tr.real - trace_target) <= tolerance
    ok = (herm <= tolerance) & (np.abs(tr.imag) <= tolerance) & trace_ok
    k = len(ok) if ok.all() else int(np.argmin(ok))
    h = (m.conj().swapaxes(-1, -2) + m) / 2.0
    evals = np.linalg.eigvalsh(h[:k])[:, 0]
    if np.any(evals < -tolerance):
        j = int(np.argmax(evals < -tolerance))
        raise StateError(f"density matrix has negative eigenvalue {evals[j]:.3e}", j)
    if k == len(ok):
        return h, evals
    t_k = complex(tr[k])
    if not np.isfinite(m[k]).all():
        raise StateError("density matrix has non-finite entries", k)
    if not herm[k] <= tolerance:
        raise StateError(f"density matrix not Hermitian: max |rho - rho^dag| = {herm[k]:.3e}", k)
    if not abs(t_k.imag) <= tolerance:
        raise StateError(f"density matrix trace has imaginary part {t_k.imag:.3e}", k)
    if trace_target is None:
        raise StateError(f"sub-normalized block must have trace in [0, 1], got {t_k.real!r}", k)
    raise StateError(f"trace {t_k.real!r} differs from declared trace {trace_target!r}", k)


def sector_stack(rng, sizes, n):
    """n random states, each a direct sum of blocks of the given sizes on
    one random permutation of the indices; returns the stack and the
    index set of each block."""
    d = sum(sizes)
    perm = rng.permutation(d)
    blocks = np.split(perm, np.cumsum(sizes)[:-1])
    stack = np.zeros((n, d, d), dtype=complex)
    for rho in stack:
        for idx, w in zip(blocks, rng.dirichlet(np.ones(len(sizes)))):
            rho[np.ix_(idx, idx)] = w * random_density(rng, len(idx))
    return stack, blocks


def _break_component(kind, rho, idx):
    """Break one component (index set idx) of one state in place."""
    sub = rho[np.ix_(idx, idx)]
    if kind == "negative eigenvalue":
        lam, u = np.linalg.eigh(sub)
        shift = lam[0] + 1e-3
        lam[0] -= shift
        lam[-1] += shift  # the trace stays, except for a 1 x 1 block
        sub = (u * lam) @ u.conj().T if len(idx) > 1 else np.full((1, 1), -1e-3)
    elif kind == "non-finite":
        sub[0, 0] = np.nan
    elif kind == "not Hermitian":
        sub[0, -1] += 1e-6 if len(idx) > 1 else 1e-6j
    else:  # trace
        sub *= 1.5
    rho[np.ix_(idx, idx)] = sub


SECTOR_SIZES = [(1, 2, 3, 2, 1, 3), (2, 2, 2), (1, 1, 1, 1), (3, 3, 1), (5,)]
BREAKS = ["negative eigenvalue", "non-finite", "not Hermitian", "trace"]


@pytest.mark.parametrize("sizes", SECTOR_SIZES)
def test_component_check_matches_the_dense_check(sizes, rng):
    kinds = set()
    for trace_target in (1.0, None):
        stack, blocks = sector_stack(rng, sizes, 12)
        h, evals = dense_check_states(stack, 1e-9, trace_target)
        ours = check_states(stack, 1e-9, trace_target)
        np.testing.assert_array_equal(ours.view(np.uint64), h.view(np.uint64))
        pattern = StatePattern.of(stack)
        assert (pattern.entries is None) == (len(sizes) == 1)
        np.testing.assert_allclose(pattern.min_eigenvalues(ours), evals, rtol=0, atol=1e-14)
        for kind in BREAKS:
            for k, c in ((0, 0), (5, len(sizes) // 2), (11, len(sizes) - 1)):
                bad = stack.copy()
                _break_component(kind, bad[k], blocks[c])
                try:
                    h_bad, _ = dense_check_states(bad, 1e-9, trace_target)
                except StateError as expected:
                    with pytest.raises(StateError) as err:
                        check_states(bad, 1e-9, trace_target)
                    assert err.value.index == expected.index
                    assert str(err.value) == str(expected)
                    kinds.add(next(b for b in BREAKS if b in str(expected)))
                else:  # a sub-normalized stack may pass the trace check
                    ours = check_states(bad, 1e-9, trace_target)
                    np.testing.assert_array_equal(ours.view(np.uint64), h_bad.view(np.uint64))
    assert kinds == set(BREAKS)  # every kind of failure was met


@pytest.mark.parametrize("density", [0.0, 0.02, 0.05, 0.1, 0.3, 1.0, "path"])
def test_components_match_a_graph_search(density, rng):
    from scipy.sparse.csgraph import connected_components

    for d in (1, 2, 7, 40, 66):
        if density == "path":  # the longest chain: one component through a random order
            perm = rng.permutation(d)
            mask = np.zeros((d, d), dtype=bool)
            mask[perm[:-1], perm[1:]] = True
        else:
            mask = rng.random((d, d)) < density
        stack = np.stack([np.tril(mask), np.triu(mask)]) * (0.5 - 0.25j)
        n, lab = connected_components(mask | mask.T, directed=False)
        expected = sorted(np.flatnonzero(lab == c).tolist() for c in range(n))
        pattern = StatePattern.of(stack)
        assert sorted(c for g in pattern.groups for c in g.tolist()) == expected
        assert (pattern.entries is None) == (n == 1)


def test_one_sided_entry_between_components_breaks_hermiticity(rng):
    stack, blocks = sector_stack(rng, (2, 1, 3), 6)
    a, b = blocks[0][0], blocks[2][1]
    for i, j in ((a, b), (b, a)):  # below and above the diagonal
        bad = stack.copy()
        bad[3, i, j] = 1e-6
        with pytest.raises(StateError) as expected:
            dense_check_states(bad, 1e-9, 1.0)
        with pytest.raises(StateError) as err:
            check_states(bad)
        assert err.value.index == expected.value.index == 3
        assert str(err.value) == str(expected.value)


def test_only_exact_zeros_split_components(rng):
    stack, blocks = sector_stack(rng, (2, 2, 1), 3)
    pattern = StatePattern.of(stack)
    components = sorted(sorted(idx) for group in pattern.groups for idx in group.tolist())
    assert components == sorted(sorted(b.tolist()) for b in blocks)
    # a 1e-300 coupling between two sectors in one state joins them
    i, j = blocks[0][1], blocks[1][0]
    stack[1, i, j] = stack[1, j, i] = 1e-300
    merged = StatePattern.of(stack)
    components = sorted(sorted(idx) for group in merged.groups for idx in group.tolist())
    assert components == sorted([sorted([*blocks[0], *blocks[1]]), sorted(blocks[2].tolist())])
    np.testing.assert_allclose(
        merged.min_eigenvalues(check_states(stack)),
        np.linalg.eigvalsh(check_states(stack))[:, 0], rtol=0, atol=1e-14,
    )
    # no single state spans every index, but their union does: no gather
    k = blocks[2][0]
    stack[2, i, k] = stack[2, k, i] = 1e-300
    assert StatePattern.of(stack).entries is None
    assert StatePattern.of(stack[:2]).entries is not None


def test_two_by_two_floor_matches_dense_eigvalsh(rng):
    # components {0, 3} and {1, 4} of size 2, {2} of size 1, on d = 5
    pairs = [(0, 3), (1, 4)]
    blocks = []
    for _ in range(40):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        blocks.append(np.outer(v, v.conj()) / np.vdot(v, v).real)  # rank 1: a floor of 0
    for a in (0.0, 0.5, 1e-12, 0.25 + 2.0**-40):
        blocks.append(np.diag([a, a]).astype(complex))  # degenerate, b = 0
        blocks.append(np.array([[a, 1e-17], [1e-17, a]], dtype=complex))
    for scale in (1e-300, 1e-18, 1e-9):
        blocks.append(scale * random_density(rng, 2))  # near zero
        blocks.append(np.array([[scale, scale * 1j], [-scale * 1j, scale]]))
    blocks.append(np.array([[0.5, 0.5], [0.5, 0.5 - 2e-16]], dtype=complex))
    stack = np.zeros((len(blocks), 5, 5), dtype=complex)
    for k, b in enumerate(blocks):
        for (i, j), sub in zip(pairs, (b, b[::-1, ::-1].conj())):
            stack[k][np.ix_([i, j], [i, j])] = sub
        stack[k, 2, 2] = 1.0
    pattern = StatePattern.of(stack)
    assert sorted(idx.shape for idx in pattern.groups) == [(1, 1), (2, 2)]
    h = _hermitian_parts(stack)
    floor = pattern.min_eigenvalues(h)
    subs = [h[:, [i, j]][:, :, [i, j]] for i, j in pairs]
    want = np.min([np.linalg.eigvalsh(sub)[:, 0] for sub in subs] + [h[:, 2, 2].real], axis=0)
    scale = np.max([np.abs(sub).max(axis=(1, 2)) for sub in subs], axis=0)
    assert np.all(np.abs(floor - want) <= 4 * np.finfo(float).eps * scale)
    # a floor of -1e-6 in one 2 x 2 block: the same state and message as the dense check
    lam, u = np.array([-1e-6, 1.0 / 3.0 + 1e-6]), random_unitary(rng, 2)
    bad = stack / 3.0  # traces in [0, 1]
    bad[17][np.ix_([1, 4], [1, 4])] = (u * lam) @ u.conj().T
    bad[23] = bad[17]
    with pytest.raises(StateError) as expected:
        dense_check_states(bad, 1e-7, None)
    with pytest.raises(StateError) as err:
        check_states(bad, 1e-7, None)
    assert err.value.index == expected.value.index == 17
    assert str(err.value) == str(expected.value) == "density matrix has negative eigenvalue -1.000e-06"


def test_state_stack_is_read_only_views_of_hermitian_parts(rng):
    sp = HilbertSpace((3,))
    stack = np.array([random_density(rng, 3) for _ in range(4)])
    stack[:, 0, 1] += 1e-12j  # within tolerance of Hermitian
    states = DensityMatrix.stack(sp, stack, tolerance=1e-7, trace_target=None)
    np.testing.assert_array_equal(
        [s.matrix for s in states], (stack + stack.conj().swapaxes(1, 2)) / 2.0
    )
    base = states[0].matrix.base
    assert base is not None and all(s.matrix.base is base for s in states)
    assert not base.flags.writeable and not np.shares_memory(base, stack)
    assert all(s.tolerance == 1e-7 and s.trace_target is None and s.space == sp for s in states)
    with pytest.raises(ValueError, match="space dim"):
        DensityMatrix.stack(HilbertSpace((2,)), stack)


def test_state_series_holds_the_checked_stack_read_only(rng, monkeypatch):
    from cobath import core

    checked = []

    def capture(*args):
        checked.append(check_states(*args))
        return checked[-1]

    monkeypatch.setattr(core, "check_states", capture)
    sp = HilbertSpace((3,))
    stack = np.array([random_density(rng, 3) for _ in range(5)])
    series = DensityMatrix.stack(sp, stack, tolerance=1e-7, trace_target=None)
    assert isinstance(series, StateSeries) and series.matrices is checked[-1]
    assert not series.matrices.flags.writeable and series.matrices.base is None
    assert (series.space, series.tolerance, series.trace_target) == (sp, 1e-7, None)
    with pytest.raises(ValueError, match="read-only"):
        series.matrices[0, 0, 0] = 0.0


def test_state_series_rows_and_slices_are_views_of_one_base(rng):
    sp = HilbertSpace((3,))
    stack = np.array([random_density(rng, 3) for _ in range(21)])
    series = DensityMatrix.stack(sp, stack, tolerance=1e-7, trace_target=None)
    base = series.matrices
    fields = (sp, 1e-7, None)

    def is_view(rho, row):
        assert type(rho) is DensityMatrix and rho.matrix.base is base
        assert (rho.space, rho.tolerance, rho.trace_target) == fields
        assert rho.matrix.tobytes() == base[row].tobytes()

    assert len(series) == 21
    for k in (0, 5, 20, -1, -21):
        is_view(series[k], range(21)[k])
    for k in (21, -22):
        with pytest.raises(IndexError):
            series[k]
    rows = list(series)
    assert len(rows) == 21
    for row, rho in enumerate(rows):
        is_view(rho, row)
    for cut in (slice(1, None), slice(None, None, 8), slice(None, None, 10), slice(3, -2, 4)):
        part = series[cut]
        picked = range(21)[cut]
        assert type(part) is StateSeries and len(part) == len(picked)
        assert part.matrices.base is base and not part.matrices.flags.writeable
        assert (part.space, part.tolerance, part.trace_target) == fields
        for rho, row in zip(part, picked):
            is_view(rho, row)
        is_view(part[-1], picked[-1])
    assert len(series[21:]) == 0 and list(series[21:]) == []


def test_ket_norm_bound():
    sp = HilbertSpace((2,))
    with pytest.raises(ValueError):
        KetState(sp, np.array([1.0, 1.0]))
    sub = KetState(sp, np.array([0.5, 0.0]))
    assert sub.projector(tolerance=1e-9).trace == pytest.approx(0.25)


def test_partial_trace_entangled_marginal():
    # maximally entangled one-excitation state has a maximally mixed atom
    sp = HilbertSpace((2, 2))
    psi = (basis_ket(sp, (0, 0)).amplitudes - basis_ket(sp, (1, 1)).amplitudes) / np.sqrt(2)
    rho = KetState(sp, psi).projector()
    atom = partial_trace(rho, keep=[0])
    np.testing.assert_allclose(atom.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state(rng):
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    sp = HilbertSpace((2, 3))
    rho = DensityMatrix(sp, np.kron(a, b))
    np.testing.assert_allclose(partial_trace(rho, [0]).matrix, a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(rho, [1]).matrix, b, atol=1e-13)


def test_partial_trace_preserves_trace(rng):
    sp = HilbertSpace((2, 2, 3))
    rho = DensityMatrix(sp, random_density(rng, 12))
    for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        out = partial_trace(rho, keep)
        assert abs(out.trace - rho.trace) < 1e-12


def test_partial_trace_all_factors_is_identity(rng):
    sp = HilbertSpace((2, 3))
    rho = DensityMatrix(sp, random_density(rng, 6))
    out = partial_trace(rho, [0, 1])
    np.testing.assert_array_equal(out.matrix, rho.matrix)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2)]))
def test_partial_trace_hermitian_psd(seed, dims):
    rng = np.random.default_rng(seed)
    sp = HilbertSpace(dims)
    rho = DensityMatrix(sp, random_density(rng, sp.total_dim))
    out = partial_trace(rho, [0])
    m = out.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(m)[0] > -1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dagger_involution_random(seed):
    rng = np.random.default_rng(seed)
    sp = HilbertSpace((4,))
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = Operator(sp, m)
    assert np.array_equal(op.dagger().dagger().matrix, op.matrix)
    ij = op.dagger().matrix
    for i in range(4):
        for j in range(4):
            assert ij[i, j] == np.conj(op.matrix[j, i])


def test_operators_immutable():
    sp = HilbertSpace((2,))
    op = identity(sp)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_hermitian_parts_equal_the_complex_division_on_signed_zeros(rng):
    m = rng.normal(size=(40, 6, 6)) + 1j * rng.normal(size=(40, 6, 6))
    re, im = m.real.copy(), m.imag.copy()
    for part in (re, im):
        hit = rng.random(part.shape) < 0.5
        part[hit] = rng.choice([0.0, -0.0], size=hit.sum())
    m = re + 1j * im
    half, division = _hermitian_parts(m).view(float), hermitian_parts_by_division(m).view(float)
    assert np.array_equal(half, division)  # as numbers: -0.0 == 0.0
    # only the sign of some zeros differs; tests/test_cli.py shows no column reads it
    signs = np.signbit(half) != np.signbit(division)
    assert signs.any() and np.all(half[signs] == 0.0)
    rho = np.array([random_density(rng, 6) for _ in range(5)])
    np.testing.assert_array_equal(check_states(rho), _hermitian_parts(rho))
