import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobath.config import parse_config
from cobath.core import basis_ket, embed
from cobath.jc import (
    CONDITIONAL_FLOOR,
    JCParams,
    asymptotic_state,
    build_jc,
    closed_form_block,
    closed_form_states,
    conditional_state,
    dark_state,
    excitation_number,
    excited_population,
    ground_population,
    ground_state,
    jc_initial,
    jc_initial_ket,
    jc_space,
    sector_entries,
    two_qubit_projection,
    wootters_concurrence,
    x_state_concurrence,
)
from cobath.jc import _sector_matrix, _sector_propagator
from cobath.master_equation import SpectralTensor, integrate
from cobath.runner import read_csv, run_to_files
from concurrence_reference import (
    block_concurrence_exact,
    block_concurrence_variant,
    conditional_two_qubit,
)
from conftest import random_hermitian
from dissipator_reference import build_dissipator, propagate_deterministic
from operator_reference import make_atom_ops, make_cavity_ops, partial_trace
from hierarchy_reference import sector_block
from split_reference import build_dressed_jc

DFS = dict(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01)


# ------------------------------------------------------------------ params

def test_params_reject_cross_rate_beyond_bound():
    with pytest.raises(ValueError, match="g12"):
        JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.02)


def test_params_truncation_rule():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.0, g22=0.0, n_exc=2)
    assert p.n_max == 4
    with pytest.raises(ValueError, match="n_max"):
        JCParams(omega0=1.0, eps=0.1, g11=0.0, g22=0.0, n_exc=2, n_max=3)


def test_params_reject_negative_rates():
    with pytest.raises(ValueError):
        JCParams(omega0=1.0, eps=0.1, g11=-0.01, g22=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("field", ["eps", "g11", "g22", "g12", "k_mirror"])
def test_params_reject_non_finite_values(field, value):
    # the config parser's wording; NaN passes every "< 0" and PSD check
    if field in ("g11", "g22", "k_mirror") and isinstance(value, complex):
        value = value.imag
    with pytest.raises(ValueError, match=f"^{field}: must be a finite number$"):
        JCParams(**{**DFS, field: value})


@pytest.mark.parametrize("omega0, n_max", [(1e308, None), (4e307, 5), (math.nan, None), (math.inf, None)])
def test_params_reject_omega0_whose_top_level_is_not_finite(omega0, n_max):
    with pytest.raises(ValueError, match=r"^omega0: .*omega0 \* \(n_max \+ 1\) finite"):
        JCParams(**{**DFS, "omega0": omega0, "n_max": n_max})
    JCParams(**{**DFS, "omega0": 1e307})  # 1e307 * 4 is finite


# ---------------------------------------------------------------- assembly

def test_independent_baths_limit_is_exact(rng):
    # zero cross rate must perform the same arithmetic as a diagonal tensor
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.0)
    me = build_jc(p)
    diag = SpectralTensor(me.tensor.frequencies, (np.diag([0.01, 0.02]).astype(complex),))
    from cobath.master_equation import MasterEquation

    me_diag = MasterEquation(me.H_S, me.couplings, diag)
    d1 = build_dissipator(me)
    d2 = build_dissipator(me_diag)
    for _ in range(5):
        rho = random_hermitian(rng, me.space.total_dim)
        assert np.max(np.abs(d1(rho) - d2(rho))) == 0.0


def test_mirror_loss_shifts_only_diagonal_mode_terms(rng):
    base = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01)
    with_k = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.05)
    d0 = build_dissipator(build_jc(base))
    dk = build_dissipator(build_jc(with_k))
    space = jc_space(base)
    cav = make_cavity_ops(space, 1)
    a, ad = cav["a"].matrix, cav["a_dag"].matrix
    for _ in range(5):
        rho = random_hermitian(rng, space.total_dim)
        extra = dk(rho) - d0(rho)
        want = 0.05 * (a @ rho @ ad - 0.5 * (ad @ a @ rho + rho @ ad @ a))
        assert np.max(np.abs(extra - want)) < 1e-15


def test_assembly_matches_explicit_tensor(rng):
    # building the same tensor by hand and reusing the coupling split must
    # give the identical dissipator
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.005 + 0.002j)
    me = build_jc(p)
    g = np.array([[0.01, 0.005 + 0.002j], [0.005 - 0.002j, 0.02]])
    explicit = SpectralTensor((1.0,), (g,))
    from cobath.master_equation import MasterEquation

    me2 = MasterEquation(me.H_S, me.couplings, explicit)
    d1, d2 = build_dissipator(me), build_dissipator(me2)
    rho = random_hermitian(rng, me.space.total_dim)
    assert np.max(np.abs(d1(rho) - d2(rho))) < 1e-14


def test_bare_couplings_are_plain_lowering_ops():
    p = JCParams(**DFS)
    me = build_jc(p)
    space = jc_space(p)
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    assert len(me.tensor.frequencies) == 1
    # the component of each channel at the resonance frequency 1.0
    (atom_part,), (mode_part,) = ([eo.op.matrix for eo in fam if abs(eo.frequency - 1.0) <= 1e-9]
                                  for fam in me.couplings)
    np.testing.assert_allclose(atom_part, atom["S_minus"].matrix, atol=1e-12)
    np.testing.assert_allclose(mode_part, cav["a"].matrix, atol=1e-12)


def test_build_jc_rejects_a_tensor_rate_where_no_coupling_acts():
    # the bare split puts every channel at +-omega0: a rate at 2 omega0 would
    # act on no operator, leaving K = 0 and an undamped excited state
    p = JCParams(omega0=1.0, eps=0.1, g11=0.0, g22=0.0)
    g = 0.05 * np.eye(2)
    msg = r"no coupling component at tensor frequency 2.0 \(the channels act at \[1.0\]\)"
    with pytest.raises(ValueError, match=msg):
        build_jc(p, tensor=SpectralTensor((2.0,), (g,)))
    with pytest.raises(ValueError, match=msg):  # a matching frequency does not excuse it
        build_jc(p, tensor=SpectralTensor((1.0, 2.0), (g, g)))
    # at omega0 the tensor is the flat rate matrix of g11 = g22 = 0.05
    flat = build_jc(JCParams(omega0=1.0, eps=0.1, g11=0.05, g22=0.05))
    np.testing.assert_array_equal(build_jc(p, tensor=SpectralTensor((1.0,), (g,))).K, flat.K)


def test_dressed_split_has_sideband_frequencies():
    p = JCParams(**DFS)
    me = build_dressed_jc(p)
    assert len(me.tensor.frequencies) > 1
    assert all(w > 0 for w in me.tensor.frequencies)


# ------------------------------------------------------------- closed form

def test_block_initial_condition():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01)
    blk = closed_form_block(p, 2, np.array([0.0, 1.0]))
    assert blk.rho11[0].real == pytest.approx(1.0)
    assert abs(blk.rho12[0]) == pytest.approx(0.0)
    assert blk.rho22[0].real == pytest.approx(0.0)


def test_block_vacuum_rabi():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.0, g22=0.0, g12=0.0)
    t = np.linspace(0.0, 200.0, 401)
    blk = closed_form_block(p, 1, t)
    np.testing.assert_allclose(blk.rho22.real, np.sin(0.1 * t) ** 2, atol=1e-12)
    assert blk.A_n == pytest.approx(0.1)


def test_block_matches_rk4_oracle():
    # fixed-step integration of the 2x2 non-Hermitian system
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01)
    t_end = 5.0
    blk = closed_form_block(p, 1, np.array([0.0, t_end]))
    bn = np.array(
        [
            [0.5 * 1.0 - 0.5j * 0.01, 0.1 - 0.5j * 0.01],
            [0.1 - 0.5j * 0.01, 0.5 * 1.0 - 0.5j * 0.02],
        ]
    )
    r = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    n_steps = 5000
    dt = t_end / n_steps

    def rhs(m):
        return -1j * (bn @ m - m @ bn.conj().T)

    for _ in range(n_steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * dt * k1)
        k3 = rhs(r + 0.5 * dt * k2)
        k4 = rhs(r + dt * k3)
        r = r + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(blk.rho11[1] - r[0, 0]) < 1e-8
    assert abs(blk.rho12[1] - r[0, 1]) < 1e-8
    assert abs(blk.rho22[1] - r[1, 1]) < 1e-8


@pytest.mark.parametrize("k_mirror", [0.0, 0.05])
def test_closed_form_matches_integration_at_long_horizons(k_mirror):
    # from t ~ 1.4e5 on, cos(lam t) overflows while exp(-i theta t) underflows
    p = JCParams(**DFS, k_mirror=k_mirror)
    grid = np.array([0.0, 500.0, 1.5e5, 2e5, 1e6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = closed_form_states(p, grid)
    exact = integrate(build_jc(p), jc_initial(p), grid)
    for a, b in zip(closed, exact):
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-9
    if k_mirror == 0.0:
        assert excited_population(closed[-1].matrix, jc_space(p)) == pytest.approx(0.25, abs=1e-9)
    # where the direct product is finite the propagator is that product, byte for byte
    bn = _sector_matrix(p, 1)
    theta = (bn[0, 0] + bn[1, 1]) / 2.0
    dev = bn - theta * np.eye(2)
    lam = cmath.sqrt(dev[0, 0] ** 2 + dev[0, 1] * dev[1, 0])
    near = grid[:2]
    phase, cos_part, sin_over = np.exp(-1j * theta * near), np.cos(lam * near), np.sin(lam * near) / lam
    direct = [[phase * (cos_part * (1.0 if i == j else 0.0) - 1j * sin_over * dev[i, j])
               for j in range(2)] for i in range(2)]
    assert _sector_propagator(bn, grid)[:2].tobytes() == np.moveaxis(np.array(direct), 2, 0).tobytes()


def test_block_symmetric_rates_have_zero_delta():
    p = JCParams(**DFS)
    blk = closed_form_block(p, 1, np.array([0.0, 1.0]))
    assert blk.Delta == 0
    assert blk.A_n == pytest.approx(cmath.sqrt(blk.n * blk.M * blk.P))


def test_block_branch_invariance(rng):
    for _ in range(10):
        g11, g22 = rng.uniform(0, 0.2, size=2)
        g12 = math.sqrt(g11 * g22) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = JCParams(
            omega0=rng.uniform(0.5, 2.0),
            eps=rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            g11=g11,
            g22=g22,
            g12=g12,
            n_exc=3,
        )
        t = np.linspace(0.0, 30.0, 16)
        n = int(rng.integers(1, 4))
        plus = closed_form_block(p, n, t, _branch=1)
        minus = closed_form_block(p, n, t, _branch=-1)
        for name in ("rho11", "rho12", "rho22"):
            np.testing.assert_allclose(
                getattr(plus, name), getattr(minus, name), atol=1e-14
            )


def test_block_matches_two_by_two_exponential(rng):
    from scipy.linalg import expm

    for _ in range(20):
        g11, g22 = rng.uniform(0, 0.2, size=2)
        g12 = math.sqrt(g11 * g22) * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = JCParams(
            omega0=rng.uniform(0.5, 2.0),
            eps=rng.uniform(0.05, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            g11=g11,
            g22=g22,
            g12=g12,
            k_mirror=0.0,
            n_exc=3,
        )
        n = int(rng.integers(1, 4))
        rn = math.sqrt(n)
        bn = np.array(
            [
                [
                    p.omega0 * (n - 0.5) - 0.5j * (p.g11 + (n - 1) * p.g22),
                    rn * (p.eps - 0.5j * p.g12),
                ],
                [
                    rn * (np.conj(p.eps) - 0.5j * np.conj(p.g12)),
                    p.omega0 * (n - 0.5) - 0.5j * (n * p.g22),
                ],
            ]
        )
        t = float(rng.uniform(0.5, 20.0))
        blk = closed_form_block(p, n, np.array([0.0, t]))
        u = expm(-1j * bn * t)
        r = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
        assert abs(blk.rho11[1] - r[0, 0]) < 1e-10
        assert abs(blk.rho12[1] - r[0, 1]) < 1e-10
        assert abs(blk.rho22[1] - r[1, 1]) < 1e-10


def test_block_matches_full_space_propagation():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, n_exc=2)
    me = build_jc(p)
    space = jc_space(p)
    n_ph = space.factor_dims[1]
    for n in (1, 2):
        i1, i2 = n - 1, n_ph + n
        t = 7.5
        blk = closed_form_block(p, n, np.array([0.0, t]))
        f0 = basis_ket(space, (0, n - 1)).projector().matrix
        full = propagate_deterministic(me.B, f0, t)
        assert abs(full[i1, i1] - blk.rho11[1]) < 1e-10
        assert abs(full[i1, i2] - blk.rho12[1]) < 1e-10
        assert abs(full[i2, i2] - blk.rho22[1]) < 1e-10


def test_block_photon_initial_swaps_roles():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.015, g22=0.015, g12=0.0)
    t = np.linspace(0.0, 120.0, 241)
    from_atom = closed_form_block(p, 1, t, initial="atom")
    from_photon = closed_form_block(p, 1, t, initial="photon")
    # same survival envelope, with the two kets exchanged
    np.testing.assert_allclose(from_atom.survival(), from_photon.survival(), atol=1e-10)
    np.testing.assert_allclose(from_atom.rho11.real, from_photon.rho22.real, atol=1e-10)


def test_block_mirror_loss_folds_into_mode_rate():
    a = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.03)
    b = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.05, g12=0.01)
    t = np.linspace(0.0, 50.0, 51)
    blk_a = closed_form_block(a, 1, t)
    blk_b = closed_form_block(b, 1, t)
    np.testing.assert_allclose(blk_a.rho11, blk_b.rho11, atol=1e-14)
    np.testing.assert_allclose(blk_a.rho12, blk_b.rho12, atol=1e-14)


# ------------------------------------------------------------- concurrence

def test_dark_state_is_maximally_entangled():
    p = JCParams(**DFS)
    psi = dark_state(p)
    rho4 = two_qubit_projection(psi.projector(), jc_space(p))
    assert wootters_concurrence(rho4) == pytest.approx(1.0, abs=1e-12)


def test_product_block_has_zero_concurrence():
    assert block_concurrence_exact(1.0, 0.0, 0.0) == 0.0
    rho4 = np.zeros((4, 4), dtype=complex)
    rho4[0, 0] = 1.0
    assert wootters_concurrence(rho4) == 0.0


def test_eigenvalue_and_algebraic_routes_agree(rng):
    for _ in range(200):
        r11 = rng.uniform(0, 1)
        r22 = rng.uniform(0, 1 - r11 if r11 < 1 else 0)
        cap = math.sqrt(r11 * r22)
        r12 = cap * rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if r11 + r22 < 1e-6:
            continue
        w = wootters_concurrence(conditional_two_qubit(r11, r12, r22))
        # the eigenvalue route carries ~sqrt(eps) noise near pure blocks
        assert w == pytest.approx(block_concurrence_exact(r11, r12, r22), abs=1e-8)


def test_variant_formula_differs_at_dark_state():
    # the retained difference-of-roots variant overshoots on the dark state
    exact = block_concurrence_exact(0.5, -0.5, 0.5)
    variant = block_concurrence_variant(0.5, -0.5, 0.5)
    assert exact == pytest.approx(1.0)
    assert variant == pytest.approx(math.sqrt(2.0))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * math.pi),
)
def test_concurrence_bounds(r11, frac, mag, phase):
    r22 = (1.0 - r11) * frac
    r12 = math.sqrt(r11 * r22) * mag * cmath.exp(1j * phase)
    if r11 + r22 < 1e-9:
        return
    c = wootters_concurrence(conditional_two_qubit(r11, r12, r22))
    assert -1e-12 <= c <= 1.0 + 1e-9


def random_x_states(rng, n):
    """n two-qubit X states: random populations, and the coherences r03 and
    r12 at random fractions of their positivity bounds."""
    p = rng.dirichlet(np.ones(4), size=n)
    rho = np.zeros((n, 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = p
    for i, j in ((0, 3), (1, 2)):
        c = np.sqrt(p[:, i] * p[:, j]) * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        rho[:, i, j], rho[:, j, i] = c, c.conj()
    return rho


def test_x_state_concurrence_agrees_with_the_spin_flip_route(rng):
    rho = random_x_states(rng, 200)
    rho[:50, 1, 1] = rho[:50, 1, 2] = rho[:50, 2, 1] = 0.0  # rho11 = rho12 = 0, as at n_exc 1
    closed = x_state_concurrence(rho)
    np.testing.assert_allclose(closed, wootters_concurrence(rho), rtol=0, atol=1e-7)
    assert np.all((closed >= 0.0) & (closed <= 1.0))
    assert x_state_concurrence(rho[7]) == closed[7] and isinstance(x_state_concurrence(rho[7]), float)
    with pytest.raises(ValueError, match="4x4"):
        x_state_concurrence(np.eye(3))


@pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(4) if i != j and i + j != 3])
def test_x_state_concurrence_off_the_x_pattern_is_the_spin_flip_route(rng, i, j):
    rho = random_x_states(rng, 40)
    assert not np.array_equal(x_state_concurrence(rho), wootters_concurrence(rho))
    rho[17, i, j] = 1e-300  # one entry, one state: the whole stack falls back
    np.testing.assert_array_equal(x_state_concurrence(rho), wootters_concurrence(rho))
    assert x_state_concurrence(rho[17]) == wootters_concurrence(rho[17])


def test_x_state_concurrence_of_the_atom_start_is_twice_the_sector_coherence():
    grid = np.linspace(0.0, 1000.0, 201)
    for params in (DFS, dict(DFS, g22=0.02, k_mirror=0.05)):
        p = JCParams(**params)
        space = jc_space(p)
        for states in (closed_form_states(p, grid), integrate(build_jc(p), jc_initial(p), grid)):
            rho = np.array([s.matrix for s in states])
            c = x_state_concurrence(two_qubit_projection(rho, space))
            _, r12, _ = sector_entries(rho, space, 1)
            np.testing.assert_array_equal(c, 2.0 * np.abs(r12))
            cond = conditional_state(rho, space, 1)
            keep = ~np.isnan(cond.concurrence)
            assert keep.sum() > 100
            assert np.max(np.abs(c[keep] - cond.weight[keep] * cond.concurrence[keep])) <= 1e-15


def test_x_state_concurrence_clamps_a_negative_population():
    # roundoff can leave a population a hair below 0: the root stays real
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[3, 3], rho[0, 3], rho[3, 0] = 0.5, 0.5, 0.3, 0.3
    rho[1, 1], rho[2, 2] = -1e-18, 1e-3
    c = x_state_concurrence(rho)
    assert math.isfinite(c) and c == 0.6
    inner = np.zeros((4, 4), dtype=complex)
    inner[1, 1], inner[2, 2], inner[1, 2], inner[2, 1] = 0.5, 0.5, 0.3, 0.3
    inner[0, 0], inner[3, 3] = -1e-18, 1e-3
    np.testing.assert_array_equal(x_state_concurrence(np.stack([rho, inner])), [0.6, 0.6])


def test_conditional_concurrence_series_matches_pointwise():
    # the stack-wide series against the spin-flip route, one state at a time
    p = JCParams(**DFS)
    space = jc_space(p)
    stack = np.array([s.matrix for s in closed_form_states(p, np.linspace(0.0, 100.0, 26))])
    series = conditional_state(stack, space, 1).concurrence
    for k, rho in enumerate(stack):
        spin_flip = wootters_concurrence(conditional_two_qubit(*sector_entries(rho, space, 1)))
        assert series[k] == pytest.approx(spin_flip, abs=1e-7)
    assert np.all(series >= -1e-12)
    assert np.all(series <= 1 + 1e-9)


def test_variant_recorded_at_transient_point():
    # the shipped value agrees with the spin-flip oracle; the variant's gap
    # at this point is what the generated report documents
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01)
    space = jc_space(p)
    rho = closed_form_states(p, np.array([0.0, 5.0]))[1]
    entries = sector_entries(rho, space, 1)
    shipped = conditional_state(rho, space, 1).concurrence
    spin_flip = wootters_concurrence(conditional_two_qubit(*entries))
    exact = block_concurrence_exact(*entries)
    variant = block_concurrence_variant(*entries)
    assert spin_flip == pytest.approx(exact, abs=1e-7)
    assert shipped == pytest.approx(spin_flip, abs=1e-7)
    assert abs(spin_flip - variant) > 1e-3
    assert abs(shipped - variant) > 1e-3


def stationary_conditional_concurrence(p, n):
    """Long-time no-emission concurrence of sector n, in closed form.

    The normalized sector block tends to the projector on v, the right
    eigenvector of the no-jump matrix whose eigenvalue has the largest
    imaginary part (the slowest decay), so C = 2 |v1 v2*| / (|v1|^2 + |v2|^2).
    None when both eigenvalues decay equally fast: then no stationary
    conditional state exists.
    """
    evals, vecs = np.linalg.eig(_sector_matrix(p, n))
    rates = evals.imag
    if abs(rates[0] - rates[1]) <= 1e-9 * np.max(np.abs(rates)):
        return None
    v = vecs[:, np.argmax(rates)]
    return 2.0 * abs(v[0] * np.conj(v[1])) / (abs(v[0]) ** 2 + abs(v[1]) ** 2)


@pytest.mark.parametrize("g12, k_mirror", [(0.005, 0.0), (0.009, 0.01)])
def test_conditional_state_tends_to_stationary_oracle(g12, k_mirror):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=g12, k_mirror=k_mirror)
    rho = closed_form_states(p, np.array([0.0, 3000.0]))[1]
    cond = conditional_state(rho, jc_space(p), 1)
    assert cond.weight > CONDITIONAL_FLOOR
    assert cond.concurrence == pytest.approx(stationary_conditional_concurrence(p, 1), abs=1e-11)


def test_conditional_column_tends_to_stationary_oracle(tmp_path):
    cfg = parse_config(json.dumps({
        "model": "jc-mirror",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.01, "g12": 0.01,
                   "k_mirror": 0.05},
        "grid": {"t_end": 1000.0, "n_steps": 201},
        "outputs": ["concurrence"],
        "engine": "hierarchy",
    }))
    header, data = read_csv(run_to_files(cfg, tmp_path, "mirror", fmt="csv")[0])
    late = data[data[:, 0] >= 900.0, header.index("concurrence_conditional")]
    # finite: the no-emission weight is still above the floor at t_end
    assert len(late) == 21 and np.all(np.isfinite(late))
    # the transient that is left decays as exp(-0.0101 t): 1.2e-6 at t = 900
    np.testing.assert_allclose(late, stationary_conditional_concurrence(cfg.params, 1), atol=2e-6)


def test_stationary_oracle_undefined_for_degenerate_decay():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.0)
    assert stationary_conditional_concurrence(p, 1) is None


def test_mixture_initial_evolves_by_linearity():
    p = JCParams(**DFS)
    me = build_jc(p)
    t = np.linspace(0.0, 80.0, 41)
    runs = {
        kind: integrate(me, jc_initial(p, kind), t) for kind in ("atom", "photon", "mix")
    }
    for k in range(0, len(t), 8):
        blend = 0.5 * runs["atom"][k].matrix + 0.5 * runs["photon"][k].matrix
        assert np.max(np.abs(runs["mix"][k].matrix - blend)) < 1e-12


# ------------------------------------------------------------- observables

def test_population_closed_system():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.0, g22=0.0, g12=0.0)
    t = np.linspace(0.0, 100.0, 201)
    blk = closed_form_block(p, 1, t)
    np.testing.assert_allclose(blk.rho11.real, np.cos(0.1 * t) ** 2, atol=1e-12)


def test_population_initial_value():
    p = JCParams(**DFS)
    rho0 = jc_initial(p)
    assert excited_population(rho0, jc_space(p)) == pytest.approx(1.0)


def test_population_dfs_asymptote_is_quarter():
    # half the weight sits in the dark state, whose atomic weight is half
    p = JCParams(**DFS)
    me = build_jc(p)
    t = np.linspace(0.0, 1500.0, 151)
    final = integrate(me, jc_initial(p), t)[-1]
    assert excited_population(final, jc_space(p)) == pytest.approx(0.25, abs=1e-4)


def test_two_bath_population_peaks_decrease():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.0)
    me = build_jc(p)
    t = np.linspace(0.0, 250.0, 1001)
    states = integrate(me, jc_initial(p), t)
    pop = np.array([excited_population(s, jc_space(p)) for s in states])
    peaks = [pop[i] for i in range(1, len(pop) - 1) if pop[i] > pop[i - 1] and pop[i] > pop[i + 1]]
    assert len(peaks) >= 4
    assert all(b < a for a, b in zip(peaks, peaks[1:]))


def test_truncation_level_stays_empty():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, n_exc=2)
    me = build_jc(p)
    t = np.linspace(0.0, 60.0, 61)
    states = integrate(me, jc_initial(p), t)
    space = jc_space(p)
    for s in states[:: 10]:
        mode = partial_trace(s, keep=[1])
        assert mode.matrix[p.n_max, p.n_max].real < 1e-12


def test_sector_block_diagonality():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, n_exc=2)
    me = build_jc(p)
    space = jc_space(p)
    n_op = excitation_number(space).matrix
    sectors = np.round(np.real(np.diag(n_op))).astype(int)
    t = np.linspace(0.0, 80.0, 41)
    states = integrate(me, jc_initial(p), t)
    for s in states[::8]:
        m = s.matrix
        for i in range(space.total_dim):
            for j in range(space.total_dim):
                if sectors[i] != sectors[j]:
                    assert abs(m[i, j]) < 1e-10


def test_sector_entries_sit_on_the_sector_kets():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.0, g22=0.0, n_exc=3)
    space = jc_space(p)
    n_op = excitation_number(space)
    for n in range(1, 4):
        upper = basis_ket(space, (0, n - 1))
        lower = basis_ket(space, (1, n))
        for ket in (upper, lower):
            assert np.vdot(ket.amplitudes, n_op.matrix @ ket.amplitudes).real == pytest.approx(n)
        both = (upper.amplitudes + 1j * lower.amplitudes) / math.sqrt(2.0)
        r11, r12, r22 = sector_entries(np.outer(both, both.conj()), space, n)
        assert (r11, r12, r22) == pytest.approx((0.5, -0.5j, 0.5), abs=1e-15)
    assert ground_population(ground_state(space).projector(), space) == 1.0
    for kind, ket in (("atom", basis_ket(space, (0, 2))), ("photon", basis_ket(space, (1, 3)))):
        np.testing.assert_array_equal(jc_initial_ket(p, kind).amplitudes, ket.amplitudes)
    with pytest.raises(ValueError, match="pure"):
        jc_initial_ket(p, "mix")


def test_observables_on_a_stack_match_one_state_at_a_time(rng):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, n_exc=2)
    space = jc_space(p)
    kets = rng.normal(size=(6, space.total_dim)) + 1j * rng.normal(size=(6, space.total_dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    stack = np.einsum("ki,kj->kij", kets, kets.conj())
    pop = excited_population(stack, space)
    two = two_qubit_projection(stack, space)
    conc = wootters_concurrence(two)
    entries = [sector_entries(stack, space, n) for n in (1, 2)]
    assert pop.shape == conc.shape == (6,) and two.shape == (6, 4, 4)
    assert np.all(conc > 0)
    for k, rho in enumerate(stack):
        one_pop = excited_population(rho, space)
        one_two = two_qubit_projection(rho, space)
        one_conc = wootters_concurrence(one_two)
        assert type(one_pop) is float and type(one_conc) is float
        assert pop[k] == one_pop
        np.testing.assert_array_equal(two[k], one_two)
        assert conc[k] == one_conc
        for n, stacked in zip((1, 2), entries):
            assert tuple(e[k] for e in stacked) == sector_entries(rho, space, n)


@pytest.mark.parametrize("n_exc", [1, 2, 13, 14, 30])
def test_excited_population_is_bitwise_the_projector_trace(n_exc, rng):
    # dense complex stacks, not Hermitian: every diagonal bit is read
    space = jc_space(JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, n_exc=n_exc))
    d = space.total_dim
    stack = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    stack[::3] *= 1e-3 * rng.normal(size=(d, d))  # entries of many magnitudes
    proj = embed(np.diag([1.0, 0.0]), space, 0).matrix
    oracle = np.real(np.trace(proj @ stack, axis1=-2, axis2=-1))
    assert excited_population(stack, space).tobytes() == oracle.tobytes()
    assert excited_population(stack[7], space) == oracle[7]


def test_closed_form_states_need_one_excitation():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, n_exc=2)
    with pytest.raises(ValueError, match="n_exc = 1"):
        closed_form_states(p, np.linspace(0.0, 1.0, 3))


# -------------------------------------------------------------- asymptotics

def verified_asymptotic_state(p, initial=None, horizon_factor=20.0):
    """``asymptotic_state``, its prediction checked against direct integration
    to t = horizon_factor / (g11 + g22) at 1e-3."""
    state, label = asymptotic_state(p, initial)
    psi0 = jc_initial_ket(p) if initial is None else initial
    grid = np.linspace(0.0, horizon_factor / (p.g11 + p.g22), 201)
    final = integrate(build_jc(p), psi0.projector(), grid)[-1]
    gap = float(np.max(np.abs(final.matrix - state.matrix)))
    assert gap <= 1e-3, f"asymptotic classification {label!r} failed dynamical check: gap {gap:.3e}"
    return state, label


def test_asymptotic_dfs_matches_half_half_mixture():
    p = JCParams(**DFS)
    state, label = verified_asymptotic_state(p)
    assert label == "dfs"
    space = jc_space(p)
    want = 0.5 * dark_state(p).projector().matrix + 0.5 * ground_state(space).projector().matrix
    np.testing.assert_allclose(state.matrix, want, atol=1e-12)


def test_asymptotic_mirror_loss_decays_to_ground():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01, k_mirror=0.05)
    state, label = verified_asymptotic_state(p)
    assert label == "decaying"
    space = jc_space(p)
    np.testing.assert_allclose(state.matrix, ground_state(space).projector().matrix, atol=1e-12)


def test_asymptotic_independent_baths_decay():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.0)
    _, label = verified_asymptotic_state(p)
    assert label == "decaying"


def test_asymptotic_photon_initial_keeps_half_weight():
    # any one-excitation initial keeps exactly its dark-state overlap
    p = JCParams(**DFS)
    space = jc_space(p)
    psi0 = basis_ket(space, (1, 1))  # photon side: |<dark|psi0>|^2 = 1/2 again
    state, label = verified_asymptotic_state(p, initial=psi0)
    assert label == "dfs"
    w = abs(np.vdot(dark_state(p).amplitudes, psi0.amplitudes)) ** 2
    assert w == pytest.approx(0.5)
    assert np.trace(state.matrix @ dark_state(p).projector().matrix).real == pytest.approx(
        w, abs=1e-12
    )


def test_dark_state_identities():
    p = JCParams(**DFS)
    space = jc_space(p)
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    psi = dark_state(p).amplitudes
    collective = (atom["S_minus"] + cav["a"]).matrix
    assert np.max(np.abs(collective @ psi)) == 0.0
    me = build_jc(p)
    h_psi = me.H_S.matrix @ psi
    # eigenvector test: |<psi|H|psi>| equals ||H psi||
    assert abs(abs(np.vdot(psi, h_psi)) - np.linalg.norm(h_psi)) < 1e-12


def test_asymptotic_complex_phase_condition():
    # matching phases keep the protection, mismatched ones lose it
    phi = 0.7
    eps = 0.1 * cmath.exp(1j * phi)
    matched = JCParams(omega0=1.0, eps=eps, g11=0.01, g22=0.01, g12=0.01 * cmath.exp(1j * phi))
    _, label = verified_asymptotic_state(matched)
    assert label == "dfs"
    # a mismatched phase still decays, just through a slower mixed channel
    mismatched = JCParams(
        omega0=1.0, eps=eps, g11=0.01, g22=0.01, g12=0.01 * cmath.exp(1j * (phi + 1.0))
    )
    _, label2 = verified_asymptotic_state(mismatched, horizon_factor=120.0)
    assert label2 == "decaying"


# ------------------------------------------------------------- postselection

def postselected(p, t, k):
    """The state a detector that saw no emission up to t[k] prepares: the
    normalized top sector block of the integrated state, and the
    ``conditional_state`` read from that state."""
    space = jc_space(p)
    rho = integrate(build_jc(p), jc_initial(p), t).matrices[k]
    top = sector_block(rho, excitation_number(space), p.n_exc)
    return top / np.trace(top).real, conditional_state(rho, space, p.n_exc)


def test_postselect_initial_projector():
    p = JCParams(**DFS)
    t = np.linspace(0.0, 10.0, 11)
    out, cond = postselected(p, t, 0)
    np.testing.assert_allclose(out, jc_initial(p).matrix, atol=1e-12)
    assert (cond.weight, cond.p11, cond.re_p12, cond.im_p12, cond.p22) == (1.0, 1.0, 0.0, 0.0, 0.0)


def test_postselect_dfs_projects_onto_dark_state():
    p = JCParams(**DFS)
    t = np.linspace(0.0, 1000.0, 101)
    out, cond = postselected(p, t, 100)
    want = dark_state(p).projector().matrix
    assert np.max(np.abs(out - want)) < 1e-3
    r11, r12, r22 = sector_entries(want, jc_space(p), 1)
    got = (cond.p11, cond.re_p12 + 1j * cond.im_p12, cond.p22)
    assert max(abs(a - b) for a, b in zip(got, (r11, r12, r22))) < 1e-3
