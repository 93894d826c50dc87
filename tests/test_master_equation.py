import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cobath.config import load_config
from cobath.core import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    StateSeries,
    basis_ket,
)
from cobath.eigenops import EigenOperator
from cobath.jc import (
    JCParams,
    build_jc,
    closed_form_block,
    jc_initial,
    jc_space,
    sector_entries,
)
from cobath.master_equation import (
    IntegrationError,
    MasterEquation,
    SpectralTensor,
    apply_t0_filter,
    check_hygiene,
    diagonalize_gamma,
    grid_resolution,
    integrate,
    invariant_support,
    linear_system,
    propagate_linear,
    spacing_classes,
    time_grid,
)
from cobath.runner import build_model, simulate_config
from conftest import CONFIGS, random_hermitian, random_unitary, rotate_model, shipped_runs
from dissipator_reference import (
    build_dissipator,
    build_lamb_shift,
    lamb_shift_commutation_defect,
    pair_sum_rhs,
)
from operator_reference import make_atom_ops, make_cavity_ops
from split_reference import build_dressed_jc
from support_reference import (
    dense_generator,
    dense_invariant_support,
    reference_invariant_support,
)


# ---------------------------------------------------------------- tensors

def test_tensor_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralTensor((1.0,), (np.array([[0.0, 1.0], [0.0, 0.0]]),))


def test_tensor_rejects_cross_rate_beyond_bound():
    g = np.array([[0.01, 0.02], [0.02, 0.01]])  # |g12|^2 > g11 g22
    with pytest.raises(ValueError, match="positive semidefinite"):
        SpectralTensor((1.0,), (g,))


def test_tensor_accepts_boundary_cross_rate():
    g = np.array([[0.01, 0.01], [0.01, 0.01]])
    SpectralTensor((1.0,), (g,))


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_tensor_rejects_non_finite_frequencies(w):
    # NaN passes every order check and inf matches no coupling component:
    # either would leave rates that act on nothing
    g = 0.05 * np.eye(2)
    with pytest.raises(ValueError, match=f"tensor frequency {w!r} is not finite"):
        SpectralTensor((w,), (g,))
    with pytest.raises(ValueError, match="is not finite"):
        SpectralTensor((1.0, w), (g, g))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_tensor_rejects_non_finite_rates(bad):
    # the Hermiticity and positivity checks are NaN-blind
    g = 0.05 * np.eye(2, dtype=complex)
    g[0, 0] = bad
    with pytest.raises(ValueError, match=r"gamma\(1.0\) has non-finite entries"):
        SpectralTensor((1.0,), (g,))


# -------------------------------------------------------- helper builders

def cavity_only_me(omega0=1.0, gamma=0.05, n_max=3):
    space = HilbertSpace((n_max + 1,))
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    h = Operator(space, omega0 * (a.conj().T @ a), label="H")
    fam = (EigenOperator(omega0, Operator(space, a, label="a"), 0),)
    tensor = SpectralTensor((omega0,), (np.array([[gamma]], dtype=complex),))
    return MasterEquation(h, (fam,), tensor), space


def jc_me(g11=0.01, g22=0.02, g12=0.01, eps=0.1, k=0.0):
    return build_jc(JCParams(omega0=1.0, eps=eps, g11=g11, g22=g22, g12=g12, k_mirror=k))


def generator_terms(me):
    """The generator's terms as (X, Y) pairs, for ``invariant_support``."""
    return linear_system(me)[2]


def liouvillian(me, support=None):
    """The generator of ``linear_system`` on the flat row-major entries
    ``support`` of vec(rho) (default: all of them)."""
    everything = np.arange(me.space.total_dim**2)
    return linear_system(me)[1](everything if support is None else support)


# ------------------------------------------------------------- dissipator

def test_zero_tensor_gives_zero_dissipator(rng):
    me, space = cavity_only_me(gamma=0.0)
    d = build_dissipator(me)
    rho = random_hermitian(rng, space.total_dim)
    np.testing.assert_array_equal(d(rho), np.zeros_like(rho))


def test_single_channel_photon_number_decay():
    me, space = cavity_only_me(omega0=1.0, gamma=0.05, n_max=3)
    n_op = np.diag([0.0, 1.0, 2.0, 3.0])
    rho0 = DensityMatrix(space, np.diag([0.0, 0.0, 1.0, 0.0]))  # |2>
    t = np.linspace(0.0, 40.0, 81)
    states = integrate(me, rho0, t)
    n_t = np.array([np.real(np.trace(n_op @ s.matrix)) for s in states])
    np.testing.assert_allclose(n_t, 2.0 * np.exp(-0.05 * t), rtol=1e-6)


def test_four_term_transcription_matches(rng):
    # independent literal assembly of the shared-bath dissipator, complex cross rate
    g11, g22, g12 = 0.01, 0.02, 0.008 + 0.004j
    me = jc_me(g11=g11, g22=g22, g12=g12)
    space = me.space
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    sm, sp_ = atom["S_minus"].matrix, atom["S_plus"].matrix
    a, ad = cav["a"].matrix, cav["a_dag"].matrix

    def lit(rho):
        def lind(rate, left, right_dag, kk):
            return rate * (left @ rho @ right_dag - 0.5 * (kk @ rho + rho @ kk))

        out = lind(g11, sm, sp_, sp_ @ sm)
        out += lind(g22, a, ad, ad @ a)
        out += g12 * (a @ rho @ sp_ - 0.5 * (sp_ @ a @ rho + rho @ sp_ @ a))
        out += np.conj(g12) * (sm @ rho @ ad - 0.5 * (ad @ sm @ rho + rho @ ad @ sm))
        return out

    d = build_dissipator(me)
    for _ in range(10):
        rho = random_hermitian(rng, space.total_dim)
        assert np.max(np.abs(d(rho) - lit(rho))) < 1e-14


def test_generator_trace_and_hermiticity(rng):
    me = jc_me(g12=0.008 + 0.004j)
    dim = me.space.total_dim
    for _ in range(20):
        rho = random_hermitian(rng, dim)
        rho /= np.linalg.norm(rho)
        out = pair_sum_rhs(me, rho)
        assert abs(np.trace(out)) < 1e-11
        assert np.max(np.abs(out - out.conj().T)) < 1e-11


def test_liouvillian_matrix_matches_rhs(rng):
    me = jc_me(g12=0.005 + 0.002j)
    lmat = liouvillian(me)
    rho = random_hermitian(rng, me.space.total_dim)
    direct = pair_sum_rhs(me, rho)
    via_mat = (lmat @ rho.reshape(-1)).reshape(rho.shape)
    assert np.max(np.abs(direct - via_mat)) < 1e-14


# ------------------------------------------------------------- Lamb shift

def test_lamb_shift_zero_coefficients():
    me, space = cavity_only_me()
    h = build_lamb_shift(me.couplings, me.tensor.frequencies, (np.zeros((1, 1), dtype=complex),))
    np.testing.assert_array_equal(h.matrix, np.zeros((space.total_dim,) * 2))


def test_lamb_shift_single_channel():
    s = 0.03
    space = HilbertSpace((2,))
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    fam = (EigenOperator(1.0, Operator(space, sm), 0),)
    h = build_lamb_shift((fam,), (1.0,), (np.array([[s]], dtype=complex),))
    np.testing.assert_allclose(h.matrix, s * sm.conj().T @ sm, atol=1e-15)
    assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-14


def test_lamb_shift_commutation_diagnostic():
    me = jc_me(g11=0.01, g22=0.01, g12=0.0)
    # a shift proportional to the excitation count commutes exactly ...
    even = (0.02 * np.eye(2, dtype=complex),)
    h_even = build_lamb_shift(me.couplings, me.tensor.frequencies, even)
    assert lamb_shift_commutation_defect(h_even, me.H_S) < 1e-14
    # ... an asymmetric one detunes the sector kets and does not
    skew = (np.diag([0.02, -0.02]).astype(complex),)
    h_skew = build_lamb_shift(me.couplings, me.tensor.frequencies, skew)
    assert lamb_shift_commutation_defect(h_skew, me.H_S) > 1e-4


def test_lamb_shift_missing_coefficients():
    me, _ = cavity_only_me()
    with pytest.raises(ValueError, match="Lamb"):
        build_lamb_shift(me.couplings, me.tensor.frequencies, ())


def _population_diff_with_shift(s):
    # asymmetric diagonal shift detunes the two sector kets by 2s
    me = jc_me(g11=0.01, g22=0.01, g12=0.0)
    lamb = np.array([[s, 0.0], [0.0, -s]], dtype=complex)
    h_ls = build_lamb_shift(me.couplings, me.tensor.frequencies, (lamb,))
    shifted = MasterEquation(me.H_S + h_ls, me.couplings, me.tensor)
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.0)
    rho0 = jc_initial(p)
    t = np.linspace(0.0, 60.0, 61)
    proj = np.zeros((me.space.total_dim,) * 2)
    proj[: me.space.total_dim // 2, : me.space.total_dim // 2] = np.eye(
        me.space.total_dim // 2
    )
    pops = []
    for case in (me, shifted):
        states = integrate(case, rho0, t)
        pops.append(np.array([np.real(np.trace(proj @ st_.matrix)) for st_ in states]))
    return float(np.max(np.abs(pops[0] - pops[1])))


def test_lamb_shift_neglect_is_small_and_scales():
    eps = 0.1
    d1 = _population_diff_with_shift(0.005)
    d2 = _population_diff_with_shift(0.0025)
    assert 0.0 < d1 <= 5.0 * (0.005 / eps)
    assert 1.5 <= d1 / d2 <= 8.0  # shrinks at least linearly in the shift size


# -------------------------------------------------------------- T=0 filter

def two_sided_tensor():
    g_pos = np.array([[0.02, 0.01], [0.01, 0.03]], dtype=complex)
    g_neg = np.array([[0.004, 0.0], [0.0, 0.006]], dtype=complex)
    return SpectralTensor((1.0, -1.0), (g_pos, g_neg))


def test_filter_drops_negative_frequencies():
    out = apply_t0_filter(two_sided_tensor())
    assert out.frequencies == (1.0,)
    np.testing.assert_array_equal(out.gamma[0], two_sided_tensor().gamma[0])


def test_filter_idempotent():
    once = apply_t0_filter(two_sided_tensor())
    twice = apply_t0_filter(once)
    assert once.frequencies == twice.frequencies
    for a, b in zip(once.gamma, twice.gamma):
        np.testing.assert_array_equal(a, b)


def test_filtered_jc_dissipator_is_pure_lowering(rng):
    # with the absorption entries removed, the dissipator equals the
    # four-lowering-term literal form exactly
    me = jc_me(g11=0.01, g22=0.02, g12=0.01)
    atom = make_atom_ops(me.space, 0)
    cav = make_cavity_ops(me.space, 1)
    g_neg = np.zeros((2, 2), dtype=complex)
    unfiltered = SpectralTensor(
        (me.tensor.frequencies[0], -me.tensor.frequencies[0]),
        (me.tensor.gamma[0], g_neg),
    )
    fam1 = me.couplings[0] + (EigenOperator(-1.0, atom["S_plus"], 0),)
    fam2 = me.couplings[1] + (EigenOperator(-1.0, cav["a_dag"], 1),)
    me_unf = MasterEquation(me.H_S, (fam1, fam2), apply_t0_filter(unfiltered))
    d_ref = build_dissipator(me)
    d_f = build_dissipator(me_unf)
    rho = random_hermitian(rng, me.space.total_dim)
    np.testing.assert_allclose(d_f(rho), d_ref(rho), atol=1e-16)


# --------------------------------------------------------------- integrate

def test_free_precession_phase():
    space = HilbertSpace((2,))
    h = Operator(space, 0.5 * np.diag([1.0, -1.0]).astype(complex))
    me = MasterEquation(h, (), SpectralTensor((), ()))
    rho0 = DensityMatrix(space, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    t = np.linspace(0.0, 20.0, 41)
    states = integrate(me, rho0, t, max_step=0.01)
    coh = np.array([s.matrix[0, 1] for s in states])
    np.testing.assert_allclose(coh, 0.5 * np.exp(-1j * t), atol=1e-8)


def test_cavity_decay_expectation():
    me, space = cavity_only_me(omega0=1.0, gamma=0.08, n_max=2)
    rho0 = DensityMatrix(space, np.diag([0.0, 1.0, 0.0]))
    t = np.linspace(0.0, 30.0, 61)
    states = integrate(me, rho0, t)
    n_op = np.diag([0.0, 1.0, 2.0])
    n_t = np.array([np.real(np.trace(n_op @ s.matrix)) for s in states])
    np.testing.assert_allclose(n_t, np.exp(-0.08 * t), rtol=1e-6, atol=1e-12)


def test_half_step_convergence():
    me = jc_me()
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01)
    rho0 = jc_initial(p)
    t = np.linspace(0.0, 10.0, 21)
    from cobath.master_equation import default_max_step

    h = default_max_step(me)
    full = integrate(me, rho0, t, max_step=h)
    half = integrate(me, rho0, t, max_step=h / 2)
    dev = max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(full, half))
    assert dev < 1e-8


@pytest.mark.parametrize("max_step", [-1.0, 0.0, math.nan])
def test_integrate_rejects_non_positive_max_step(max_step):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.005)
    with pytest.raises(ValueError, match="max_step must be > 0"):
        integrate(build_jc(p), jc_initial(p), np.linspace(0.0, 4.0, 21), max_step=max_step)


def test_default_step_counts_the_lamb_shift():
    # in a random basis the support is all d^2 = 400 entries, so the default
    # RK4 path runs; with a Lamb shift H_LS in the Hamiltonian its step must
    # follow the spread of H_S + H_LS, not of the bare H_S
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j, n_exc=7)
    space = jc_space(p)
    u = random_unitary(np.random.default_rng(20240817), space.total_dim)
    rot = rotate_model(build_jc(p), u)
    h_ls = Operator(space, u @ np.diag(np.linspace(0.0, 40.0, space.total_dim)) @ u.conj().T)
    me = MasterEquation(rot.H_S + h_ls, rot.couplings, rot.tensor)
    rho0 = DensityMatrix(space, u @ jc_initial(p).matrix @ u.conj().T)
    t = np.linspace(0.0, 1.0, 3)
    default = integrate(me, rho0, t)
    fine = integrate(me, rho0, t, max_step=0.002)
    assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(default, fine)) <= 1e-8


def test_exact_integrate_matches_rk4_and_closed_form_at_dfs_point():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01)
    me = build_jc(p)
    t = np.linspace(0.0, 50.0, 26)
    exact = integrate(me, jc_initial(p), t)
    rk4 = integrate(me, jc_initial(p), t, max_step=0.01)
    assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(exact, rk4)) <= 1e-9
    blk = closed_form_block(p, 1, t)
    n_ph = jc_space(p).factor_dims[1]
    i1, i2 = 0, n_ph + 1
    for k, s in enumerate(exact):
        assert abs(s.matrix[i1, i1] - blk.rho11[k]) <= 1e-9
        assert abs(s.matrix[i1, i2] - blk.rho12[k]) <= 1e-9
        assert abs(s.matrix[i2, i2] - blk.rho22[k]) <= 1e-9


def test_exact_integrate_caches_one_propagator_per_spacing(monkeypatch):
    import cobath.master_equation as me_mod

    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(me_mod, "expm", counting_expm)
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j)
    me = build_jc(p)
    t = np.concatenate([np.linspace(0.0, 10.0, 11), 10.0 + 2.5 * np.arange(1, 5)])
    exact = integrate(me, jc_initial(p), t)
    assert len(calls) == 2  # spacings 1.0 and 2.5
    monkeypatch.setattr(me_mod, "expm", expm)
    rk4 = integrate(me, jc_initial(p), t, max_step=0.01)
    assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(exact, rk4)) <= 1e-9


def reference_propagate_linear(me, y0, t):
    """The exact path step by step: a dict keyed by round(dt / resolution),
    filled at a key's first spacing, and one ``@`` per grid step."""
    support = invariant_support(y0, generator_terms(me))
    L = liouvillian(me, support)
    resolution = grid_resolution(t)
    cache = {}
    out = np.zeros((len(t) - 1, *y0.shape), dtype=complex)
    y = y0.reshape(-1)[support]
    for k, dt in enumerate(np.diff(t)):
        key = round(dt / resolution)
        if key not in cache:
            cache[key] = expm(L * dt)
        y = cache[key] @ y
        out[k].reshape(-1)[support] = y
    return out


def mixed_grid():
    """np.linspace spacings (one key, last bits apart), distinct spacings, the
    linspace spacing again, computed another way, then another linspace."""
    head = np.linspace(0.0, 10.3, 41)
    mid = head[-1] + np.cumsum([0.3, 0.7, 0.3, 1.1, 0.7])
    again = mid[-1] + 0.2575 * np.arange(1, 30)
    tail = np.linspace(again[-1], 40.0, 17)[1:]
    return time_grid(np.concatenate([head, mid, again, tail]))


@pytest.mark.parametrize("n_exc, k_mirror, size", [(1, 0.0, 5), (13, 0.05, 53)])
def test_exact_path_is_bitwise_the_per_step_reference(n_exc, k_mirror, size):
    p = JCParams(
        omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j, k_mirror=k_mirror, n_exc=n_exc
    )
    me, y0 = build_jc(p), jc_initial(p).matrix
    t = mixed_grid()
    assert invariant_support(y0, generator_terms(me)).size == size
    dts = np.diff(t)
    assert len(set(dts[:40].tolist())) > 1  # the linspace spacings differ in their last bits
    first, of = spacing_classes(t)
    assert len(first) == 5 and np.all(of[45:74] == of[0]) and len(set(of[:40].tolist())) == 1
    got = propagate_linear(me, y0, t, None)
    assert got.tobytes() == reference_propagate_linear(me, y0, t).tobytes()


def test_spacing_classes_key_as_round_half_to_even():
    r = grid_resolution(np.array([1.0]))  # 2^-46; just below 1 floats are r / 128 apart
    steps = [2.5, 2.0, 3.5, 4.0, 1.5, 2.0, 2.625, 0.5, 7.0]
    t = 1.0 - r * np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])
    assert np.array_equal(np.diff(t), r * np.array(steps))
    keys = [round(dt / r) for dt in np.diff(t)]
    assert keys == [2, 2, 4, 4, 2, 2, 3, 0, 7]  # ties go to the even neighbour
    first, of = spacing_classes(t)
    assert [keys.index(key) for key in keys] == first[of].tolist()
    for j, key in enumerate(keys):
        assert [keys[k] for k in np.flatnonzero(of == of[j])] == [key] * keys.count(key)
    first, of = spacing_classes(np.array([2.5]))
    assert first.size == of.size == 0


# ------------------------------------------------------ invariant support

SUPPORT_CASES = {
    "common_n1": (dict(g12=0.006 + 0.004j, n_exc=1), "atom", False),
    "common_n2_photon": (dict(g12=0.008, n_exc=2), "photon", False),
    "mirror_n3_mix": (dict(g12=0.01, k_mirror=0.05, n_exc=3), "mix", False),
    "two_bath_n13": (dict(g12=0.0, n_exc=13), "atom", False),
    "common_n13": (dict(g12=0.007j, n_exc=13), "atom", False),
    "dressed_n2": (dict(g12=0.008, n_exc=2), "atom", True),
}


def support_case(name):
    rates, initial, dressed = SUPPORT_CASES[name]
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, **rates)
    return p, (build_dressed_jc if dressed else build_jc)(p), jc_initial(p, initial)


@pytest.mark.parametrize("name", SUPPORT_CASES)
def test_support_is_invariant_under_the_full_rhs(name, rng):
    p, me, rho0 = support_case(name)
    d = me.space.total_dim
    support = invariant_support(rho0.matrix, generator_terms(me))
    # sector 0 holds one state and every other sector two
    assert support.size == 1 + 4 * p.n_exc
    y = np.zeros(d * d, dtype=complex)
    y[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
    out = pair_sum_rhs(me, y.reshape(d, d)).reshape(-1)
    outside = np.ones(d * d, dtype=bool)
    outside[support] = False
    assert np.all(out[outside] == 0)
    assert np.any(out[support] != 0)


def test_support_of_a_single_coherence_is_invariant(rng):
    # a lone off-diagonal entry: the pattern is not symmetric, so the rows
    # and the columns the closure tracks differ
    _, me, _ = support_case("mirror_n3_mix")
    d = me.space.total_dim
    y0 = np.zeros((d, d), dtype=complex)
    y0[0, d - 1] = 1.0
    support = invariant_support(y0, generator_terms(me))
    y = np.zeros(d * d, dtype=complex)
    y[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
    out = pair_sum_rhs(me, y.reshape(d, d)).reshape(-1)
    outside = np.ones(d * d, dtype=bool)
    outside[support] = False
    assert support.size < d * d
    assert np.all(out[outside] == 0)


def test_restricted_liouvillian_is_the_full_one_restricted():
    _, me, rho0 = support_case("mirror_n3_mix")
    support = invariant_support(rho0.matrix, generator_terms(me))
    full = liouvillian(me)
    np.testing.assert_array_equal(liouvillian(me, support), full[np.ix_(support, support)])
    everything = np.arange(me.space.total_dim**2)
    np.testing.assert_array_equal(liouvillian(me, everything), full)


def assert_support_is_both_dense_searches(y0, structure):
    """The worklist search of ``y0`` against the per-term and the batched
    dense 0/1 searches: the same index array, dtype included."""
    got = invariant_support(y0, structure)
    for want in (
        reference_invariant_support(y0, [(0, x, y) for x, y in structure]),
        dense_invariant_support(y0, structure),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    return got


@pytest.mark.parametrize("k_mirror", [0.0, 0.05])
@pytest.mark.parametrize("n_exc", [0, 1, 2, 13, 30])
def test_support_search_is_the_per_term_reference_on_jc(n_exc, k_mirror):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.0098, g12=0.008, k_mirror=k_mirror,
                 n_exc=n_exc)
    structure = generator_terms(build_jc(p))
    y0 = jc_initial(p, "mix" if n_exc else "atom").matrix
    got = assert_support_is_both_dense_searches(y0, structure)
    assert got.size == 1 + 4 * n_exc


def test_support_search_is_the_per_term_reference_off_jc(rng):
    # the rotated model has no exact zeros (full support); the custom tensor
    # is the shipped one; a state of zeros reaches nothing
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j, n_exc=2)
    u = random_unitary(rng, jc_space(p).total_dim)
    cfg = load_config(str(CONFIGS / "custom_tensor.json"))
    cases = [
        (rotate_model(build_jc(p), u), u @ jc_initial(p).matrix @ u.conj().T),
        (build_model(cfg), jc_initial(cfg.params, cfg.initial).matrix),
    ]
    sizes = []
    for me, rho0 in cases:
        structure = generator_terms(me)
        for y0 in (rho0, np.zeros_like(rho0)):
            sizes.append(assert_support_is_both_dense_searches(y0, structure).size)
    d = jc_space(p).total_dim
    assert sizes[:2] == [d * d, 0]
    assert sizes[3] == 0


def support_oracle_inputs(name, rng):
    """(me, y0) of a support-search oracle input: each SUPPORT_CASES start, a
    lone coherence, the rotated full-support model (its state and a lone
    entry) and a sector-pure start at n_exc 128."""
    if name in SUPPORT_CASES:
        _, me, rho0 = support_case(name)
        return me, rho0.matrix
    if name == "coherence":
        _, me, _ = support_case("mirror_n3_mix")
        y0 = np.zeros((me.space.total_dim,) * 2, dtype=complex)
        y0[0, -1] = 1.0
        return me, y0
    if name.startswith("rotated"):
        p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j)
        u = random_unitary(rng, jc_space(p).total_dim)
        me = rotate_model(build_jc(p), u)
        rho0 = u @ jc_initial(p).matrix @ u.conj().T
        return me, rho0 if name == "rotated" else np.eye(len(u))[:, :1] @ np.eye(len(u))[:1]
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.0098, g12=0.008, n_exc=128)
    return build_jc(p), jc_initial(p).matrix


@pytest.mark.parametrize("name", [*SUPPORT_CASES, "coherence", "rotated", "rotated_entry", "n128"])
def test_support_search_is_both_dense_searches(name, rng):
    me, y0 = support_oracle_inputs(name, rng)
    got = assert_support_is_both_dense_searches(y0, generator_terms(me))
    d = me.space.total_dim
    assert got.size == {"rotated": d * d, "rotated_entry": d * d, "n128": 513}.get(name, got.size)


def bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


# the many-quanta benchmark's models: jc-common at n_exc 13, 14 and 30,
# g11 and g22 in [0.0095, 0.0105], g12 = c sqrt(g11 g22) with c in [0.5, 0.95]
MANY_QUANTA = [
    (n_exc, g11, g22, cross * math.sqrt(g11 * g22))
    for n_exc in (13, 14, 30)
    for g11, g22, cross in ((0.0095, 0.0105, 0.5), (0.0101, 0.0098, 0.73), (0.0105, 0.0095, 0.95))
]


def restricted_generator_cases():
    """(name, me, y0) of every shipped config and of the many-quanta models."""
    cases = {}
    for name, cfg in shipped_runs():
        me = build_model(cfg)
        cases[name.removesuffix("[closed-form]")] = (me, jc_initial(cfg.params, cfg.initial).matrix)
    for n_exc, g11, g22, g12 in MANY_QUANTA:
        p = JCParams(omega0=1.0, eps=0.1, g11=g11, g22=g22, g12=g12, n_exc=n_exc)
        cases[f"many_quanta_{n_exc}_{g11}"] = (build_jc(p), jc_initial(p).matrix)
    return cases


def test_restricted_generator_is_bitwise_the_dense_assembly():
    # L[S, S] from the reached entries only, against every entry from the
    # |S| x |S| products: equal under a uint64 view, so signed zeros count
    for name, (me, y0) in restricted_generator_cases().items():
        _, generator, structure = linear_system(me)
        support = invariant_support(y0, structure)
        got, want = generator(support), dense_generator(me, support)
        assert got.shape == want.shape == (support.size, support.size), name
        assert np.array_equal(bits(got), bits(want)), name


def test_generator_on_any_support_is_bitwise_the_dense_assembly(rng):
    # supports that are not invariant, unsorted, or empty: entries outside
    # them are not read
    _, me, rho0 = support_case("mirror_n3_mix")
    d = me.space.total_dim
    generator = linear_system(me)[1]
    for support in (
        rng.permutation(d * d)[:40],
        np.sort(rng.permutation(d * d)[:60]),
        np.arange(d * d),
        np.zeros(0, dtype=np.intp),
    ):
        got, want = generator(support), dense_generator(me, support)
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("where", ["hamiltonian", "coupling"])
def test_master_equation_rejects_a_non_finite_generator(where):
    me = build_jc(JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01))
    h, fams = me.H_S, me.couplings
    if where == "hamiltonian":
        h = Operator(h.space, h.matrix + np.diag([np.inf] + [0.0] * (h.space.total_dim - 1)))
    else:
        eo = fams[0][-1]  # the lowering component, at +omega0
        m = eo.op.matrix.copy()
        m[m != 0] = np.nan
        fams = ((*fams[0][:-1], EigenOperator(eo.frequency, Operator(eo.op.space, m))), fams[1])
    with pytest.raises(ValueError, match="non-finite"):
        MasterEquation(h, fams, me.tensor)


def counting_expm(monkeypatch):
    import cobath.master_equation as me_mod

    shapes = []

    def counted(a):
        shapes.append(a.shape)
        return expm(a)

    monkeypatch.setattr(me_mod, "expm", counted)
    return shapes


@pytest.mark.parametrize("n_exc", [13, 30])
def test_support_path_matches_full_state_rk4_and_closed_form(n_exc, monkeypatch):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.0098, g12=0.008, n_exc=n_exc)
    me, space = build_jc(p), jc_space(p)
    t = np.linspace(0.0, 2.0, 5)
    shapes = counting_expm(monkeypatch)
    exact = integrate(me, jc_initial(p), t)
    n = 1 + 4 * n_exc
    assert shapes == [(n, n)]  # far below dim^2 = 4 (n_exc + 3)^2 entries
    monkeypatch.undo()
    rk4 = integrate(me, jc_initial(p), t, max_step=0.01)
    assert max(np.max(np.abs(a.matrix - b.matrix)) for a, b in zip(exact, rk4)) <= 1e-9
    # outside the support both paths hold exact zeros
    outside = np.ones(space.total_dim**2, dtype=bool)
    outside[invariant_support(jc_initial(p).matrix, generator_terms(me))] = False
    for a, b in zip(exact, rk4):
        assert np.all(a.matrix.reshape(-1)[outside] == 0)
        assert np.all(b.matrix.reshape(-1)[outside] == 0)
    blk = closed_form_block(p, n_exc, t)
    r11, r12, r22 = sector_entries(np.array([s.matrix for s in exact]), space, n_exc)
    for got, want in ((r11, blk.rho11), (r12, blk.rho12), (r22, blk.rho22)):
        assert np.max(np.abs(got - want)) <= 1e-9


def test_coherence_between_sectors_matches_full_liouvillian_expm(monkeypatch):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j, n_exc=2)
    me, space = build_jc(p), jc_space(p)
    # |+, 1 photon> (sector 2) in superposition with the ground state (sector 0)
    psi = (basis_ket(space, (0, 1)).amplitudes + basis_ket(space, (1, 0)).amplitudes) / math.sqrt(2)
    rho0 = DensityMatrix(space, np.outer(psi, psi.conj()))
    t = np.array([0.0, 1.0, 2.0, 4.5, 7.0, 20.0])
    shapes = counting_expm(monkeypatch)
    states = integrate(me, rho0, t)
    assert all(shape[0] < space.total_dim**2 for shape in shapes)
    monkeypatch.undo()
    L = liouvillian(me)
    for tk, s in zip(t, states):
        want = (expm(L * tk) @ rho0.matrix.reshape(-1)).reshape(rho0.matrix.shape)
        assert np.max(np.abs(s.matrix - want)) <= 1e-12
    assert abs(states[-1].matrix[1, space.factor_dims[1]]) > 1e-3  # the coherence survives


def test_full_support_is_bitwise_the_full_liouvillian_expm(rng):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.006 + 0.004j)
    u = random_unitary(rng, jc_space(p).total_dim)
    me = rotate_model(build_jc(p), u)
    rho0 = DensityMatrix(me.space, u @ jc_initial(p).matrix @ u.conj().T)
    d = me.space.total_dim
    assert invariant_support(rho0.matrix, generator_terms(me)).size == d * d
    t = 2.0 * np.arange(8)  # one exact spacing, so one propagator
    states = integrate(me, rho0, t)
    step = expm(liouvillian(me) * 2.0)
    y = rho0.matrix.reshape(-1)
    for s in states[1:]:
        y = step @ y
        m = y.reshape(d, d)
        np.testing.assert_array_equal(s.matrix, (m + m.conj().T) / 2.0)


def test_integrate_requires_increasing_grid():
    me, space = cavity_only_me()
    rho0 = DensityMatrix(space, np.diag([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="increasing"):
        integrate(me, rho0, np.array([0.0, 1.0, 0.5]))


@pytest.mark.parametrize("max_step", [None, 0.1])
def test_integrate_on_a_one_point_grid_returns_the_initial_state(max_step):
    # the exact path (no max_step) and the RK4 path; nothing is propagated
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.005)
    rho0 = jc_initial(p)
    states = integrate(build_jc(p), rho0, [2.5], max_step=max_step)
    assert len(states) == 1 and states[0] is rho0


@pytest.mark.parametrize("max_step", [None, 0.1])
def test_integrate_series_starts_with_the_initial_state_itself(max_step):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.005)
    m = jc_initial(p).matrix.copy()
    m[0, 1] += 1e-12j  # within 1e-9 of Hermitian: row 0 holds m, not its Hermitian part
    rho0 = DensityMatrix(jc_space(p), m)
    states = integrate(build_jc(p), rho0, np.linspace(0.0, 40.0, 21), max_step=max_step)
    assert type(states) is StateSeries and len(states) == 21
    assert states[0] is rho0 and states[-21] is rho0 and next(iter(states)) is rho0
    assert states[::8][0] is rho0 and states[::10][0] is rho0
    assert states.matrices[0].tobytes() == m.tobytes() and not states.matrices.flags.writeable
    later = states[1:]
    assert later[0] is not rho0 and later[0].matrix.base is states.matrices
    assert later[0].matrix.tobytes() == states.matrices[1].tobytes()
    assert (later.tolerance, later.trace_target) == (1e-7, rho0.trace)
    assert states[::-1][0].matrix.base is states.matrices


def test_simulate_config_series_is_the_stack_its_engine_checked(monkeypatch):
    # each series against the list its engine returned before StateSeries, stacked again:
    # the checked rows, after the initial state for integrate
    from cobath import core, master_equation

    checked = {"stack": [], "hygiene": []}

    def capture(key, check):
        def wrapped(*args):
            checked[key].append(check(*args))
            return checked[key][-1]
        return wrapped

    monkeypatch.setattr(core, "check_states", capture("stack", core.check_states))
    hygiene = capture("hygiene", master_equation.check_hygiene)
    monkeypatch.setattr(master_equation, "check_hygiene", hygiene)
    engines = set()
    for name, cfg in shipped_runs():
        checked["stack"].clear()
        checked["hygiene"].clear()
        series = simulate_config(cfg)
        engines.add(cfg.engine)
        if cfg.engine in ("integrate", "hierarchy"):
            rho0 = jc_initial(cfg.params, cfg.initial)
            states = [rho0.matrix, *checked["hygiene"][-1]]
        else:
            assert series.matrices is checked["stack"][-1], name
            states = list(checked["stack"][-1])
        d = jc_space(cfg.params).total_dim
        assert series.matrices.shape == (len(cfg.grid.times()), d, d), name
        assert series.matrices.tobytes() == np.array(states).tobytes(), name
        assert np.array([s.matrix for s in series]).tobytes() == np.array(states).tobytes(), name
    assert engines == {"closed-form", "integrate", "hierarchy", "mcwf"}


def test_integrate_reports_failure_time():
    me, space = cavity_only_me(omega0=5.0, gamma=0.5)
    rho0 = DensityMatrix(space, np.diag([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(IntegrationError) as err:
        integrate(me, rho0, np.array([0.0, 40.0, 80.0]), max_step=40.0)
    assert err.value.t in (40.0, 80.0)


def test_integrate_reports_exact_first_failing_time():
    # two short stable RK4 steps, then one step far beyond the stable size
    me, space = cavity_only_me(omega0=5.0, gamma=0.5)
    rho0 = DensityMatrix(space, np.diag([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(IntegrationError) as err:
        integrate(me, rho0, np.array([0.0, 0.1, 0.2, 40.0, 80.0]), max_step=40.0)
    assert err.value.t == 40.0


def test_integrate_reports_non_finite_state_at_its_time():
    # one RK4 step of size 1e80 / gamma overflows to inf and NaN
    me, space = cavity_only_me(omega0=1.0, gamma=1e80)
    rho0 = DensityMatrix(space, np.diag([0.0, 1.0, 0.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationError) as err:
        integrate(me, rho0, np.array([0.0, 1e-82, 1.0]), max_step=1.0)
    assert err.value.t == 1.0


def test_hygiene_check_reports_the_first_failing_time():
    me, space = cavity_only_me()
    rho0 = DensityMatrix(space, np.diag([0.0, 0.0, 1.0, 0.0]))
    t = np.linspace(0.0, 20.0, 8)
    series = integrate(me, rho0, t).matrices
    assert len(check_hygiene(series, t, 1.0, None)) == len(t)
    bad = series.copy()
    bad[3] += np.diag([-1.0, 1.0, 0.0, 0.0])  # negative eigenvalue, trace kept
    bad[5, 0, 0] = np.nan  # later: non-finite, never reached
    with pytest.raises(IntegrationError, match="negative eigenvalue") as err:
        check_hygiene(bad, t, 1.0, None)
    assert err.value.t == t[3]
    bad[2, 1, 0] += 1e-6  # an earlier Hermiticity defect wins
    with pytest.raises(IntegrationError, match="hermiticity") as err:
        check_hygiene(bad, t, 1.0, None)
    assert err.value.t == t[2]
    bad[2, 1, 0] = 0.0
    bad[2] += np.diag([-1.0, 1.0, 0.0, 0.0])
    bad[2, 2, 2] += 0.1  # the trace of a time is checked before its state
    with pytest.raises(IntegrationError, match="trace drift") as err:
        check_hygiene(bad, t, 1.0, None)
    assert err.value.t == t[2]


def test_integrate_rejects_unfiltered_tensor():
    me, space = cavity_only_me()
    t = SpectralTensor((1.0, -1.0), (me.tensor.gamma[0], np.array([[0.0]])))
    a = me.couplings[0][0]
    fam = (a, EigenOperator(-1.0, a.op.dagger(), 0))
    me_neg = MasterEquation(me.H_S, (fam,), t)
    rho0 = DensityMatrix(space, np.diag([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="filter"):
        integrate(me_neg, rho0, np.array([0.0, 1.0]))


# ----------------------------------------------------- diagonalized jumps

def test_diagonal_tensor_gives_scaled_couplings():
    me, space = cavity_only_me(gamma=0.04)
    ops = diagonalize_gamma(me.tensor, me.couplings)
    assert len(ops) == 1
    w, L = ops[0]
    assert w == pytest.approx(1.0)
    np.testing.assert_allclose(L.matrix, math.sqrt(0.04) * me.couplings[0][0].op.matrix)


def test_collective_channel_is_rank_one():
    g = 0.01
    me = jc_me(g11=g, g22=g, g12=g)
    ops = diagonalize_gamma(me.tensor, me.couplings)
    assert len(ops) == 1  # rank(gamma) = 1
    _, L = ops[0]
    atom = make_atom_ops(me.space, 0)
    cav = make_cavity_ops(me.space, 1)
    collective = math.sqrt(g) * (atom["S_minus"].matrix + cav["a"].matrix)
    # equal up to a global phase
    overlap = np.vdot(collective, L.matrix)
    phase = overlap / abs(overlap)
    np.testing.assert_allclose(L.matrix, phase * collective, atol=1e-12)


def test_rank_matches_emitted_count():
    me = jc_me(g11=0.01, g22=0.02, g12=0.005)
    ops = diagonalize_gamma(me.tensor, me.couplings)
    assert len(ops) == np.linalg.matrix_rank(me.tensor.gamma[0], tol=1e-12)


def test_rebuilt_dissipator_matches_on_matrix_units():
    me = jc_me(g11=0.01, g22=0.02, g12=0.006 + 0.005j)
    d = build_dissipator(me)
    ops = [L.matrix for _, L in diagonalize_gamma(me.tensor, me.couplings)]
    dim = me.space.total_dim

    def rebuilt(rho):
        out = np.zeros_like(rho)
        for L in ops:
            ll = L.conj().T @ L
            out += L @ rho @ L.conj().T - 0.5 * (ll @ rho + rho @ ll)
        return out

    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            assert np.max(np.abs(d(unit) - rebuilt(unit))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_filter_idempotent_random(seed):
    rng = np.random.default_rng(seed)
    freqs = [1.0, -1.0, 2.5, -0.3]
    mats = []
    for _ in freqs:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        mats.append(g @ g.conj().T)
    t = SpectralTensor(tuple(freqs), tuple(mats))
    once = apply_t0_filter(t)
    twice = apply_t0_filter(once)
    assert once.frequencies == twice.frequencies
    assert all(w > 0 for w in once.frequencies)
