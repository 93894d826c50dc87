import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from cobath.core import DensityMatrix, HilbertSpace, KetState, Operator, basis_ket
from cobath.eigenops import EigenOperator
from cobath.jc import (
    JCParams,
    build_jc,
    closed_form_block,
    excitation_number,
    excited_population,
    jc_initial,
    jc_initial_ket,
    jc_space,
    sector_entries,
)
from cobath.master_equation import (
    MasterEquation,
    SpectralTensor,
    grid_resolution,
    integrate,
    jump_superoperator,
    linear_system,
)
from cobath import runner, trajectories
from cobath.config import load_config, parse_config
from cobath.runner import build_model, simulate_config
from cobath.trajectories import (
    _first_crossings,
    _norm2,
    _rowwise,
    _Streams,
    _unit_rows,
    hierarchy_sector,
    mcwf_unravel,
)
from conftest import CONFIGS, random_density, random_hermitian, random_unitary, rotate_model
from dissipator_reference import pair_sum_rhs, propagate_deterministic
from hierarchy_reference import _block_system, jump_feed, sector_block
from hierarchy_reference import linear_system as stack_system
from mcwf_reference import reference_mcwf_unravel
from operator_reference import make_atom_ops, make_cavity_ops
from rk4_reference import rk4_states
from support_reference import reference_invariant_support

WINDOW = 8  # grid intervals per group in the grids and jump-record checks below


def cavity_only_me(omega0=1.0, gamma=0.08, n_max=2):
    space = HilbertSpace((n_max + 1,))
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    h = Operator(space, omega0 * (a.conj().T @ a), label="H")
    fam = (EigenOperator(omega0, Operator(space, a, label="a"), 0),)
    tensor = SpectralTensor((omega0,), (np.array([[gamma]], dtype=complex),))
    number = Operator(space, np.diag(np.arange(n_max + 1)).astype(complex))
    return MasterEquation(h, (fam,), tensor), space, number


def jc_setup(g11=0.01, g22=0.02, g12=0.01, eps=0.1, n_exc=1):
    p = JCParams(omega0=1.0, eps=eps, g11=g11, g22=g22, g12=g12, n_exc=n_exc)
    me = build_jc(p)
    return p, me, jc_space(p)


def solve_blocks(me, rho0, t, number_op):
    """The hierarchy as the library runs it: ``hierarchy_sector``'s checks,
    then ``integrate`` once.  Returns the sector n of ``rho0``, the state
    series and its blocks, ``blocks[i][k]`` = P_i rho(t_k) P_i."""
    n = hierarchy_sector(me, rho0, number_op)
    states = integrate(me, rho0, t)
    return n, states, [sector_block(states.matrices, number_op, i) for i in range(n + 1)]


# ------------------------------------------------------ effective generator

def test_generator_reduces_to_hamiltonian_without_damping():
    _, me, _ = jc_setup(g11=0.0, g22=0.0, g12=0.0)
    np.testing.assert_array_equal(me.B, me.H_S.matrix)


def test_generator_single_channel_damping():
    me, space, _ = cavity_only_me(gamma=0.08)
    a = me.couplings[0][0].op.matrix
    # B = H_S - (i/2) H' with the damping part H' = (K + K^dag) / 2
    np.testing.assert_array_equal(me.B, me.H_S.matrix - 0.5j * ((me.K + me.K.conj().T) / 2.0))
    np.testing.assert_allclose((me.K + me.K.conj().T) / 2.0, 0.08 * a.conj().T @ a, atol=1e-15)


def test_generator_matches_independent_assembly():
    g11, g22, g12 = 0.01, 0.02, 0.006 + 0.004j
    p, me, space = jc_setup(g11=g11, g22=g22, g12=g12)
    atom = make_atom_ops(space, 0)
    cav = make_cavity_ops(space, 1)
    sm, sp_ = atom["S_minus"].matrix, atom["S_plus"].matrix
    a, ad = cav["a"].matrix, cav["a_dag"].matrix
    hp = g11 * sp_ @ sm + g12 * sp_ @ a + np.conj(g12) * ad @ sm + g22 * ad @ a
    b_alt = me.H_S.matrix - 0.5j * hp
    assert np.max(np.abs(me.B - b_alt)) < 1e-15

    # one-excitation sector entries of the generator
    n_ph = space.factor_dims[1]
    i1, i2 = 0, n_ph + 1
    b = me.B
    assert b[i1, i1] == pytest.approx(0.5 * 1.0 - 0.5j * g11)
    assert b[i2, i2] == pytest.approx(0.5 * 1.0 - 0.5j * g22)
    assert b[i1, i2] == pytest.approx(0.1 - 0.5j * g12)
    assert b[i2, i1] == pytest.approx(0.1 - 0.5j * np.conj(g12))


def test_generator_rejects_unfiltered_tensor():
    me, space, _ = cavity_only_me()
    a = me.couplings[0][0]
    fam = (a, EigenOperator(-1.0, a.op.dagger(), 0))
    tensor = SpectralTensor((1.0, -1.0), (me.tensor.gamma[0], np.zeros((1, 1))))
    # no-jump evolution under B leaves out the absorption jumps: the
    # unraveling refuses such a tensor
    ket = KetState(space, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="filter"):
        mcwf_unravel(MasterEquation(me.H_S, (fam,), tensor), ket, np.linspace(0.0, 1.0, 3), 2, 0)


# --------------------------------------------------- deterministic propagation

def test_propagate_identity_at_zero_time(rng):
    _, me, space = jc_setup()
    f = np.diag(rng.uniform(size=space.total_dim)).astype(complex)
    np.testing.assert_allclose(propagate_deterministic(me.B, f, 0.0), f, atol=1e-14)


def test_propagate_unitary_limit_preserves_trace(rng):
    _, me, space = jc_setup(g11=0.0, g22=0.0, g12=0.0)
    f = np.diag(rng.uniform(size=space.total_dim)).astype(complex)
    out = propagate_deterministic(me.B, f, 3.7)
    assert np.trace(out).real == pytest.approx(np.trace(f).real, abs=1e-12)


def test_propagate_single_photon_survival():
    me, space, _ = cavity_only_me(gamma=0.08, n_max=2)
    f = np.zeros((3, 3), dtype=complex)
    f[1, 1] = 1.0
    for t in (0.5, 2.0, 10.0):
        out = propagate_deterministic(me.B, f, t)
        assert np.trace(out).real == pytest.approx(math.exp(-0.08 * t), rel=1e-10)


def test_propagate_trace_monotone_for_psd_damping(rng):
    _, me, space = jc_setup()
    g = rng.normal(size=(space.total_dim,) * 2) + 1j * rng.normal(size=(space.total_dim,) * 2)
    f = g @ g.conj().T
    f /= np.trace(f).real
    traces = [np.trace(propagate_deterministic(me.B, f, t)).real for t in np.linspace(0, 50, 11)]
    assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))


# ----------------------------------------------------------------- hierarchy

def test_ground_start_is_constant():
    p, me, space = jc_setup()
    rho0 = basis_ket(space, (1, 0)).projector()
    t = np.linspace(0.0, 20.0, 21)
    n, _, blocks = solve_blocks(me, rho0, t, excitation_number(space))
    assert n == 0
    for k in range(len(t)):
        np.testing.assert_allclose(blocks[0][k], rho0.matrix, atol=1e-12)


def test_single_excitation_ground_block_weight():
    # the ground block is (1 - r11 - r22) |0,-><0,-|
    p, me, space = jc_setup()
    t = np.linspace(0.0, 60.0, 61)
    _, _, blocks = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    n_ph = space.factor_dims[1]
    ig = n_ph  # |-,0>
    i1, i2 = 0, n_ph + 1
    for k in range(0, len(t), 10):
        top = blocks[1][k]
        ground = blocks[0][k]
        expected = 1.0 - top[i1, i1].real - top[i2, i2].real
        assert ground[ig, ig].real == pytest.approx(expected, abs=1e-9)
        off = ground.copy()
        off[ig, ig] = 0.0
        assert np.max(np.abs(off)) < 1e-10


def test_hierarchy_rejects_mixed_sectors():
    p, me, space = jc_setup()
    m = 0.5 * basis_ket(space, (1, 0)).projector().matrix
    m += 0.5 * basis_ket(space, (0, 0)).projector().matrix
    rho0 = DensityMatrix(space, m)
    with pytest.raises(ValueError, match="sector"):
        hierarchy_sector(me, rho0, excitation_number(space))
    # minor sector weight delta is below SECTOR_TOL, the coherence sqrt(delta) is not
    delta = 1e-11
    v = math.sqrt(1 - delta) * basis_ket(space, (0, 0)).amplitudes
    v += math.sqrt(delta) * basis_ket(space, (1, 0)).amplitudes
    pure = KetState(space, v).projector()
    with pytest.raises(ValueError, match="sector"):
        hierarchy_sector(me, pure, excitation_number(space))
    # a zero-trace state lies in no sector
    empty = DensityMatrix(space, np.zeros_like(m), trace_target=None)
    with pytest.raises(ValueError, match="sector"):
        hierarchy_sector(me, empty, excitation_number(space))


def test_hierarchy_rejects_a_count_with_negative_eigenvalues():
    # with N - 1 as the count, the jump out of its sector 0 lands in sector -1,
    # which no block holds: the blocks would not sum to the state
    p, me, space = jc_setup()
    shifted = Operator(space, excitation_number(space).matrix - np.eye(space.total_dim))
    with pytest.raises(ValueError, match="number operator must have no negative eigenvalue"):
        hierarchy_sector(me, jc_initial(p), shifted)


@pytest.mark.parametrize("where", ["H_S"])
def test_hierarchy_rejects_non_conserving_hamiltonian(where):
    # a counter-rotating term breaks [N, H] = 0; the check must fire up
    # front, on a grid too short for the state checks to notice the leak
    p, me, space = jc_setup()
    atom, cav = make_atom_ops(space, 0), make_cavity_ops(space, 1)
    extra = 0.1 * (cav["a"] @ atom["S_minus"] + cav["a_dag"] @ atom["S_plus"])
    bad = MasterEquation(Operator(space, me.H_S.matrix + extra.matrix), me.couplings, me.tensor)
    with pytest.raises(ValueError, match="Hamiltonian does not conserve the excitation count"):
        solve_blocks(bad, jc_initial(p), np.linspace(0.0, 0.1, 11), excitation_number(space))


def test_hierarchy_telescoping_trace():
    p, me, space = jc_setup(n_exc=2)
    t = np.linspace(0.0, 40.0, 41)
    _, _, blocks = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    for k in range(len(t)):
        assert sum(np.trace(b[k]).real for b in blocks) == pytest.approx(1.0, abs=1e-10)


def test_hierarchy_blocks_stay_psd():
    p, me, space = jc_setup(n_exc=2)
    t = np.linspace(0.0, 80.0, 41)
    _, _, blocks = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    for i, block in enumerate(blocks):
        for k in range(len(t)):
            m = (block[k] + block[k].conj().T) / 2
            assert np.linalg.eigvalsh(m)[0] > -1e-7


def test_first_shell_matches_nested_quadrature():
    # Duhamel check: the one-jump block from direct trapezoid quadrature of
    #   f(t) = int_0^t U(s)^-1 J(rho_top(s)) U(s)^-dag ds,  rho(t) = U f U^dag
    p, me, space = jc_setup()
    feed = jump_feed(me)
    rho_top0 = jc_initial(p).matrix
    n_quad = 2000
    t_max = 10.0
    s_grid = np.linspace(0.0, t_max, n_quad + 1)
    b = me.B
    integrand = []
    for s in s_grid:
        u = expm(-1j * b * s)
        u_inv = expm(1j * b * s)
        rho_top = u @ rho_top0 @ u.conj().T
        integrand.append(u_inv @ feed(rho_top) @ u_inv.conj().T)
    integrand = np.array(integrand)
    ds = s_grid[1] - s_grid[0]

    coarse = np.array([0.0, 2.0, 5.0, 10.0])
    _, _, blocks = solve_blocks(me, jc_initial(p), coarse, excitation_number(space))
    for j, t in enumerate(coarse[1:], start=1):
        k = int(round(t / ds))
        f = np.trapezoid(integrand[: k + 1], dx=ds, axis=0)
        u = expm(-1j * b * t)
        oracle = u @ f @ u.conj().T
        block = blocks[0][j]
        assert np.max(np.abs(block - oracle)) < 1e-5


def mirror_config(engine, n_exc, initial):
    return parse_config(json.dumps({
        "model": "jc-mirror",
        "params": {"omega0": 1.0, "eps": 0.1, "g11": 0.01, "g22": 0.0098, "g12": 0.008,
                   "k_mirror": 0.05, "n_exc": n_exc},
        "grid": {"t_end": 40.0, "n_steps": 21},
        "outputs": ["population", "trace"],
        "engine": engine,
        "initial": initial,
    }))


@pytest.mark.parametrize("initial", ["atom", "photon", "mix"])
@pytest.mark.parametrize("n_exc", [1, 2, 20])
def test_hierarchy_engine_is_the_checked_master_equation(n_exc, initial):
    # the blocks are the sectors of the master-equation state: the engine
    # returns integrate's series bit for bit, and the block sum agrees
    cfg = mirror_config("hierarchy", n_exc, initial)
    series = simulate_config(cfg)
    direct = simulate_config(dataclasses.replace(cfg, engine="integrate"))
    assert series.matrices.tobytes() == direct.matrices.tobytes()
    p, space = cfg.params, jc_space(cfg.params)
    _, _, blocks = solve_blocks(build_model(cfg), jc_initial(p, initial), cfg.grid.times(),
                                excitation_number(space))
    assert np.max(np.abs(sum(blocks) - series.matrices)) <= 1e-12


@pytest.mark.parametrize("initial", ["atom", "photon", "mix"])
@pytest.mark.parametrize("n_exc", [1, 2, 20])
def test_hierarchy_keeps_one_state_series(n_exc, initial):
    # the blocks are read off integrate's checked series, which the
    # hierarchy engine returns as it is: no stack of blocks beside it
    cfg = mirror_config("hierarchy", n_exc, initial)
    direct = dataclasses.replace(cfg, engine="integrate")
    series = simulate_config(cfg)
    assert series.matrices.tobytes() == simulate_config(direct).matrices.tobytes()
    if n_exc == 20:
        peaks = []
        for run in (lambda: simulate_config(direct), lambda: simulate_config(cfg)):
            tracemalloc.start()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]


def test_hierarchy_engine_checks_the_sector_split(monkeypatch):
    # a counter-rotating term breaks [N, H] = 0; the engine must still refuse
    # it, although it no longer builds blocks
    cfg = mirror_config("hierarchy", 1, "atom")
    me = build_model(cfg)
    space = me.space
    atom, cav = make_atom_ops(space, 0), make_cavity_ops(space, 1)
    extra = 0.1 * (cav["a"] @ atom["S_minus"] + cav["a_dag"] @ atom["S_plus"])
    bad = MasterEquation(Operator(space, me.H_S.matrix + extra.matrix), me.couplings, me.tensor)
    monkeypatch.setattr(runner, "build_model", lambda cfg: bad)
    with pytest.raises(ValueError, match="Hamiltonian does not conserve the excitation count"):
        simulate_config(cfg)
    simulate_config(dataclasses.replace(cfg, engine="integrate"))  # integrate runs it


def test_reconstruct_matches_direct_integration():
    # the blocks propagated as their own block-bidiagonal system, on the
    # support of the stack, and summed back into full states
    for n_exc in (1, 2):
        p, me, space = jc_setup(n_exc=n_exc)
        stack = np.zeros((n_exc + 1, space.total_dim, space.total_dim), dtype=complex)
        stack[n_exc] = jc_initial(p).matrix
        t = np.linspace(0.0, 50.0, 101)
        _, generator, structure = _block_system(me)
        support = reference_invariant_support(stack, structure)
        step = expm(generator(support) * (t[1] - t[0]))
        y, rec = stack.reshape(-1).copy(), []
        for _ in t:
            rec.append(y.reshape(stack.shape).sum(axis=0))
            y[support] = step @ y[support]
        direct = integrate(me, jc_initial(p), t)
        dev = max(np.max(np.abs(a - b.matrix)) for a, b in zip(rec, direct))
        assert dev < 1e-6


def test_exact_hierarchy_matches_rk4_with_mirror_loss():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01, k_mirror=0.05)
    me, space = build_jc(p), jc_space(p)
    t = np.linspace(0.0, 40.0, 21)
    _, _, exact = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    rk4 = rk4_states(me, jc_initial(p), t, 0.01)
    for i, a in enumerate(exact):
        assert np.max(np.abs(a - sector_block(rk4, excitation_number(space), i))) <= 1e-9


def test_rotated_hierarchy_runs_one_expm_on_the_master_equation_support(monkeypatch):
    import cobath.master_equation as me_mod

    shapes = []

    def counting_expm(a):
        shapes.append(a.shape)
        return expm(a)

    # n_exc = 2 in a random basis: no exact zeros, so the support is the
    # whole state of dim 10, 100 entries, not a stack of three blocks
    p, me, space = jc_setup(n_exc=2)
    u = random_unitary(np.random.default_rng(20240817), space.total_dim)
    me = rotate_model(me, u)
    rho0 = DensityMatrix(space, u @ jc_initial(p).matrix @ u.conj().T)
    number = Operator(space, u @ excitation_number(space).matrix @ u.conj().T)
    t = np.linspace(0.0, 20.0, 11)
    monkeypatch.setattr(me_mod, "expm", counting_expm)
    _, _, blocks = solve_blocks(me, rho0, t, number)
    monkeypatch.undo()
    assert shapes == [(100, 100)]
    direct = integrate(me, rho0, t)
    # the dense sector projectors of the rotated count sum back to the state
    assert np.max(np.abs(sum(blocks) - direct.matrices)) <= 1e-8


def block_case(n_exc, k_mirror=0.0):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.0098, g12=0.008, k_mirror=k_mirror,
                 n_exc=n_exc)
    me, space = build_jc(p), jc_space(p)
    stack = np.zeros((n_exc + 1, space.total_dim, space.total_dim), dtype=complex)
    stack[n_exc] = jc_initial(p).matrix
    return p, me, space, stack


@pytest.mark.parametrize("n_exc, k_mirror", [(1, 0.0), (2, 0.05), (13, 0.0)])
def test_block_support_is_invariant_under_the_full_rhs(n_exc, k_mirror, rng):
    _, me, _, stack = block_case(n_exc, k_mirror)
    rhs, _, structure = _block_system(me)
    support = reference_invariant_support(stack, structure)
    assert support.size == 1 + 4 * n_exc  # block i holds sector i only
    y = np.zeros(stack.size, dtype=complex)
    y[support] = rng.normal(size=support.size) + 1j * rng.normal(size=support.size)
    out = rhs(y.reshape(stack.shape)).reshape(-1)
    outside = np.ones(stack.size, dtype=bool)
    outside[support] = False
    assert np.all(out[outside] == 0)
    assert np.any(out[support] != 0)


def test_block_generator_is_the_kron_assembly_restricted():
    # the full (N + 1) dim^2 block-bidiagonal matrix, built as before
    _, me, _, stack = block_case(2, 0.05)
    _, generator, structure = _block_system(me)
    b = me.B
    eye = np.eye(me.space.total_dim, dtype=complex)
    nojump = -1j * (np.kron(b, eye) - np.kron(eye, b.conj()))
    jumps = jump_superoperator(me.terms, np.kron)
    full = np.kron(np.eye(3), nojump) + np.kron(np.eye(3, k=1), jumps)
    support = reference_invariant_support(stack, structure)
    np.testing.assert_array_equal(generator(support), full[np.ix_(support, support)])
    np.testing.assert_array_equal(generator(np.arange(stack.size)), full)


@pytest.mark.parametrize("basis", ["bare", "rotated"])
def test_projected_blocks_are_the_propagated_block_stack(basis):
    # the reference: the block-bidiagonal system, exponentiated on its full
    # stack; the number operator is diagonal (masks) or rotated (dense projectors)
    p, me, space, stack = block_case(2, 0.05)
    rho0, number = jc_initial(p), excitation_number(space)
    if basis == "rotated":
        u = random_unitary(np.random.default_rng(7), space.total_dim)
        me = rotate_model(me, u)
        rho0 = DensityMatrix(space, u @ rho0.matrix @ u.conj().T)
        number = Operator(space, u @ number.matrix @ u.conj().T)
        stack = u @ stack @ u.conj().T
    t = np.linspace(0.0, 80.0, 9)
    _, states, blocks = solve_blocks(me, rho0, t, number)
    L = _block_system(me)[1](np.arange(stack.size))
    for k, tk in enumerate(t):
        want = (expm(L * tk) @ stack.reshape(-1)).reshape(stack.shape)
        for i in range(3):
            assert np.max(np.abs(blocks[i][k] - want[i])) <= 1e-12
            # one state at a time, as from the whole series
            np.testing.assert_array_equal(sector_block(states[k].matrix, number, i), blocks[i][k])


def test_one_builder_matches_the_pair_sum_and_the_kron_assembly(rng):
    # n_exc = 2 in a random basis with a Hermitian Lamb shift H_LS in the
    # Hamiltonian: no exact zeros, and B carries H_LS.  The rates stay real: a
    # complex scalar times an array may round differently by position (vector
    # loop or scalar tail), so two assemblies of different shape are bitwise
    # equal only for real rates.
    p, me, space = jc_setup(g12=0.008, n_exc=2)
    d = space.total_dim
    rot = rotate_model(me, random_unitary(rng, d))
    h_ls = Operator(space, random_hermitian(rng, d, 0.3))
    me = MasterEquation(rot.H_S + h_ls, rot.couplings, rot.tensor)
    K = me.K
    h = rot.H_S.matrix + h_ls.matrix
    np.testing.assert_array_equal(me.B, h - 0.5j * ((K + K.conj().T) / 2.0))

    # the master equation, as a matrix and as the one-block rhs, against the pair sum
    rho = random_density(rng, d)
    want = pair_sum_rhs(me, rho)
    generator, _ = linear_system(me)
    via_matrix = (generator(np.arange(d * d)) @ rho.reshape(-1)).reshape(d, d)
    assert np.max(np.abs(via_matrix - want)) <= 1e-13
    rhs = stack_system(me, 0)[0]  # the RK4 oracle's
    assert np.max(np.abs(rhs(rho[None])[0] - want)) <= 1e-13

    # the hierarchy on its full stack: bitwise the block-bidiagonal kron assembly
    b = me.B
    eye = np.eye(d, dtype=complex)
    nojump = -1j * (np.kron(b, eye) - np.kron(eye, b.conj()))
    jumps = jump_superoperator(me.terms, np.kron)
    full = np.kron(np.eye(3), nojump) + np.kron(np.eye(3, k=1), jumps)
    _, generator, _ = _block_system(me)
    np.testing.assert_array_equal(generator(np.arange(3 * d * d)), full)


def test_block_support_path_matches_full_stack_rk4_and_closed_form(monkeypatch):
    import cobath.master_equation as me_mod

    shapes = []

    def counting_expm(a):
        shapes.append(a.shape)
        return expm(a)

    n_exc = 13
    p, me, space, _ = block_case(n_exc)
    t = np.linspace(0.0, 2.0, 5)
    monkeypatch.setattr(me_mod, "expm", counting_expm)
    _, _, exact = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    n = 1 + 4 * n_exc
    assert shapes == [(n, n)]  # not (n_exc + 1) dim^2
    monkeypatch.undo()
    rk4 = rk4_states(me, jc_initial(p), t, 0.01)
    for i, a in enumerate(exact):
        assert np.max(np.abs(a - sector_block(rk4, excitation_number(space), i))) <= 1e-9
    blk = closed_form_block(p, n_exc, t)
    r11, r12, r22 = sector_entries(exact[n_exc], space, n_exc)
    for got, want in ((r11, blk.rho11), (r12, blk.rho12), (r22, blk.rho22)):
        assert np.max(np.abs(got - want)) <= 1e-9


def test_no_jump_conditional_equals_top_block():
    p, me, space = jc_setup(g11=0.01, g22=0.01, g12=0.01)
    t = np.linspace(0.0, 120.0, 13)
    _, _, blocks = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    psi0 = jc_initial(p).matrix
    for k, tv in ((4, 40.0), (12, 120.0)):
        cond = propagate_deterministic(me.B, psi0, tv)
        cond /= np.trace(cond).real
        top = blocks[1][k]
        top = top / np.trace(top).real
        assert np.max(np.abs(cond - top)) < 1e-7


# ----------------------------------------------------------------- MCWF

def test_mcwf_without_damping_is_schroedinger():
    p, me, space = jc_setup(g11=0.0, g22=0.0, g12=0.0)
    psi0 = basis_ket(space, (0, 0))
    t = np.linspace(0.0, 30.0, 16)
    res = mcwf_unravel(me, psi0, t, n_traj=3, seed=11)
    assert all(len(r) == 0 for r in res.jump_records)
    for k, tv in enumerate(t):
        u = expm(-1j * me.H_S.matrix * tv)
        v = u @ psi0.amplitudes
        np.testing.assert_allclose(res.averages[-1][k], np.outer(v, v.conj()), atol=1e-10)


def test_mcwf_jump_fraction_matches_survival():
    me, space, _ = cavity_only_me(gamma=0.08, n_max=2)
    psi0 = KetState(space, np.array([0.0, 1.0, 0.0], dtype=complex))
    t_end = 10.0
    n_traj = 500
    res = mcwf_unravel(me, psi0, np.linspace(0.0, t_end, 11), n_traj=n_traj, seed=5)
    frac = sum(1 for r in res.jump_records if len(r) >= 1) / n_traj
    p_jump = 1.0 - math.exp(-0.08 * t_end)
    sigma = math.sqrt(p_jump * (1 - p_jump) / n_traj)
    assert abs(frac - p_jump) <= 3 * sigma


def test_mcwf_converges_to_integration():
    p, me, space = jc_setup(g11=0.01, g22=0.01, g12=0.01)
    psi0 = basis_ket(space, (0, 0))
    t = np.linspace(0.0, 150.0, 31)
    res = mcwf_unravel(me, psi0, t, n_traj=800, seed=3, snapshot_counts=(50,))
    direct = integrate(me, jc_initial(p), t)
    dev_small = max(
        np.max(np.abs(res.averages[0][k] - direct[k].matrix)) for k in range(len(t))
    )
    dev_full = max(
        np.max(np.abs(res.averages[-1][k] - direct[k].matrix)) for k in range(len(t))
    )
    assert dev_full < 0.08
    assert dev_full < dev_small  # more trajectories, closer ensemble


def test_mcwf_zero_jump_fraction_matches_block_weight():
    p, me, space = jc_setup(g11=0.01, g22=0.01, g12=0.01)
    psi0 = basis_ket(space, (0, 0))
    t = np.linspace(0.0, 200.0, 21)
    n_traj = 600
    res = mcwf_unravel(me, psi0, t, n_traj=n_traj, seed=17)
    _, _, blocks = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    surv = np.trace(blocks[1][-1]).real  # t = 200
    frac = sum(1 for r in res.jump_records if len(r) == 0) / n_traj
    sigma = math.sqrt(surv * (1 - surv) / n_traj)
    assert abs(frac - surv) <= 3 * sigma


def test_mcwf_jump_counts_match_every_block_weight():
    # the independent oracle for the projected blocks: block i carries the
    # records with n_exc - i jumps, which the MCWF jump records count
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.0098, g12=0.008, k_mirror=0.05, n_exc=2)
    me, space = build_jc(p), jc_space(p)
    t = np.linspace(0.0, 150.0, 16)
    n_traj = 600
    res = mcwf_unravel(me, jc_initial_ket(p), t, n_traj=n_traj, seed=17)
    _, _, blocks = solve_blocks(me, jc_initial(p), t, excitation_number(space))
    jumps = np.array([np.searchsorted([tj for tj, _ in rec], t, side="right")
                      for rec in res.jump_records])
    for i, block in enumerate(blocks):
        weight = np.trace(block, axis1=1, axis2=2).real
        frac = np.mean(jumps == p.n_exc - i, axis=0)
        assert np.max(weight) > 0.2
        assert np.all(np.abs(frac - weight) <= 5 * 0.5 / math.sqrt(n_traj))


def test_mcwf_requires_normalized_ket():
    p, me, space = jc_setup()
    with pytest.raises(ValueError, match="normalized"):
        mcwf_unravel(me, np.zeros(space.total_dim), np.linspace(0, 1, 2), 1, 0)


def test_mcwf_is_seed_deterministic():
    p, me, space = jc_setup(g11=0.02, g22=0.02, g12=0.0)
    psi0 = basis_ket(space, (0, 0))
    t = np.linspace(0.0, 60.0, 7)
    a = mcwf_unravel(me, psi0, t, n_traj=40, seed=9)
    b = mcwf_unravel(me, psi0, t, n_traj=40, seed=9)
    assert a.jump_records == b.jump_records
    np.testing.assert_array_equal(a.averages[-1], b.averages[-1])
    # chunking must not change the ordered reduction
    c = mcwf_unravel(me, psi0, t, n_traj=40, seed=9, chunk_size=7)
    np.testing.assert_allclose(c.averages[-1], a.averages[-1], atol=1e-13)
    assert c.jump_records == a.jump_records


@pytest.mark.parametrize("d", [6, 8, 16, 32, 66])
def test_rowwise_product_bits_do_not_depend_on_the_batch(d):
    # one gemm over the batch can give a row other bits than the same row
    # alone; jump records would then depend on chunk_size
    from cobath.trajectories import _rowwise

    rng = np.random.default_rng(d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for rows in (2, 7, 100, 1000):
        x = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
        batch = _rowwise(x, m)
        for i in range(rows):
            np.testing.assert_array_equal(batch[i], _rowwise(x[i : i + 1], m)[0])


@pytest.mark.parametrize("n0", [1, 2])
def test_mcwf_jump_times_match_threshold_oracle(n0):
    # |n> decays at rate n gamma, so with the documented draw order
    # (r_1, then per jump the channel draw and the next threshold) the jumps
    # of trajectory j fall at t_1 = -ln(r_1) / (n0 gamma) and, from |1>,
    # t_2 = t_1 - ln(r_3) / gamma
    gamma, seed, t_end = 0.08, 31, 100.0
    me, space, _ = cavity_only_me(gamma=gamma, n_max=2)
    psi0 = basis_ket(space, (n0,))
    res = mcwf_unravel(me, psi0, np.linspace(0.0, t_end, 11), n_traj=200, seed=seed)
    n_checked = 0
    for j, rec in enumerate(res.jump_records):
        draws = np.random.default_rng([seed, j]).random(3)
        expected = [-math.log(draws[0]) / (n0 * gamma)]
        if n0 == 2:
            expected.append(expected[0] - math.log(draws[2]) / gamma)
        expected = [x for x in expected if x < t_end]
        assert len(rec) == len(expected)
        for (tj, ch), x in zip(rec, expected):
            assert ch == 0
            assert tj == pytest.approx(x, rel=1e-9)
            n_checked += 1
    assert n_checked > 150 * n0


def test_mcwf_several_jumps_per_interval_match_integration():
    # the excited population stays above 0.02, so 400 trajectories sample it
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, g12=0.01, k_mirror=0.1, n_exc=2)
    me, space = build_jc(p), jc_space(p)
    grid = np.linspace(0.0, 60.0, 7)
    res = mcwf_unravel(me, jc_initial_ket(p, "atom"), grid, n_traj=400, seed=8)
    interval = [np.searchsorted(grid, [tj for tj, _ in rec], side="right") for rec in res.jump_records]
    assert sum(np.any(np.diff(k) == 0) for k in interval) >= 10  # two jumps inside one interval
    assert {ch for rec in res.jump_records for _, ch in rec} == {0, 1}
    direct = np.array([s.matrix for s in integrate(me, jc_initial(p), grid)])
    dev = np.abs(excited_population(res.averages[-1], space) - excited_population(direct, space))
    # the summed entry errors bound the error of the population (a sum of entries)
    bound = excited_population(res.stderr, space)
    assert np.all(dev <= 5 * bound + 1e-12)
    assert np.all(bound[1:] > 0)


def test_mcwf_stderr_matches_per_trajectory_stack():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.02, g22=0.01, g12=0.01, k_mirror=0.02)
    me, space = build_jc(p), jc_space(p)
    n = 12
    res = mcwf_unravel(me, jc_initial_ket(p), np.linspace(0.0, 100.0, 11), n_traj=n, seed=4,
                       snapshot_counts=tuple(range(1, n)))
    # running means over 1..n trajectories give back each trajectory's state
    sums = np.array([c * avg for c, avg in zip(res.counts, res.averages)])
    stack = np.diff(sums, axis=0, prepend=0.0)
    np.testing.assert_allclose(stack.mean(axis=0), res.averages[-1], atol=1e-14)
    oracle = np.std(stack, axis=0, ddof=1) / math.sqrt(n)
    assert np.max(oracle) > 0.05
    np.testing.assert_allclose(res.stderr, oracle, rtol=1e-6, atol=1e-7)
    one = mcwf_unravel(me, jc_initial_ket(p), np.linspace(0.0, 100.0, 11), n_traj=1, seed=4)
    assert np.all(np.isnan(one.stderr))


def test_mcwf_one_trajectory_chunks_match_default():
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.03, n_exc=2)
    me, space = build_jc(p), jc_space(p)
    t = np.linspace(0.0, 150.0, 16)
    a = mcwf_unravel(me, jc_initial_ket(p, "photon"), t, n_traj=60, seed=21)
    b = mcwf_unravel(me, jc_initial_ket(p, "photon"), t, n_traj=60, seed=21, chunk_size=1)
    assert sum(len(r) for r in a.jump_records) > 60
    assert b.jump_records == a.jump_records
    np.testing.assert_allclose(b.averages[-1], a.averages[-1], atol=1e-13)
    np.testing.assert_allclose(b.stderr**2, a.stderr**2, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 2**32 + 5, 2**70 + 3])
def test_streams_match_default_rng_bitwise(seed):
    # j = 2^32 - 1 -> 2^32 is where j's entropy grows from one uint32 word to
    # two; with seed 2^70 + 3 (three words) j's second word falls past the pool
    js = np.array([0, 1, 2**32 - 1, 2**32, 2**33 + 5])
    streams = _Streams(seed, js)
    oracles = [np.random.default_rng([seed, int(j)]) for j in js]
    pick = np.random.default_rng(seed % 2**32)
    for draw in range(12):
        rows = slice(None) if draw < 2 else np.flatnonzero(pick.random(js.size) < 0.5)
        got = streams.random(rows)
        want = np.array([oracles[i].random() for i in np.arange(js.size)[rows]])
        np.testing.assert_array_equal(got, want)


def assert_same_result(a, b):
    assert a.counts == b.counts
    assert a.jump_records == b.jump_records
    np.testing.assert_array_equal(a.grid, b.grid)
    assert len(a.averages) == len(b.averages)
    for x, y in zip(a.averages, b.averages):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.stderr, b.stderr)  # NaN matches NaN


@pytest.mark.parametrize(
    "n_exc, k_mirror, initial, chunk_size, snapshot_counts",
    [
        (1, 0.0, "atom", 1000, ()),
        (1, 0.05, "atom", 1, (3, 10)),
        (2, 0.03, "photon", 7, (20,)),
        (2, 0.0, "atom", 1000, (5, 40)),
        (3, 0.05, "atom", 7, ()),
        (3, 0.0, "photon", 1, ()),
    ],
)
def test_mcwf_is_bitwise_the_per_trajectory_reference(n_exc, k_mirror, initial, chunk_size,
                                                       snapshot_counts):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=k_mirror, n_exc=n_exc)
    me, psi0 = build_jc(p), jc_initial_ket(p, initial)
    t = np.linspace(0.0, 300.0, 31)
    n_traj = 40 if chunk_size == 1 else 120
    for seed in (3, 2**32 + 5):
        args = (me, psi0, t, n_traj, seed, snapshot_counts, chunk_size)
        res = mcwf_unravel(*args)
        assert sum(len(r) for r in res.jump_records) > n_traj // 4
        assert_same_result(res, reference_mcwf_unravel(*args))
    one = mcwf_unravel(me, psi0, t, 1, 3, chunk_size=chunk_size)
    assert_same_result(one, reference_mcwf_unravel(me, psi0, t, 1, 3, chunk_size=chunk_size))


def jump_intervals(grid, record):
    return np.searchsorted(grid, [tj for tj, _ in record], side="right") - 1


def assert_bitwise_the_reference(p, initial, grid, n_traj, chunk_size, snapshot_counts):
    me, psi0 = build_jc(p), jc_initial_ket(p, initial)
    args = (me, psi0, grid, n_traj, 3, snapshot_counts, chunk_size)
    res = mcwf_unravel(*args)
    assert_same_result(res, reference_mcwf_unravel(*args))
    return res


@pytest.mark.parametrize("chunk_size, snapshot_counts", [(1000, ()), (7, (4, 25)), (1, (3,))])
def test_mcwf_window_with_several_ladders_is_bitwise_the_reference(chunk_size, snapshot_counts):
    # four ladders (spacings 3, 7, 11, 20) inside every window, and a spacing
    # 20 + 1e-13 that shares the ladder of 20 but keeps its own jump times
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.03, n_exc=2)
    spacings = np.tile([20.0, 3.0, 7.0, 20.0 + 1e-13, 11.0, 3.0], 4)
    grid = np.concatenate([[0.0], np.cumsum(spacings)])
    n_traj = 40 if chunk_size == 1 else 120
    res = assert_bitwise_the_reference(p, "photon", grid, n_traj, chunk_size, snapshot_counts)
    # rows whose first crossing in a window falls on different ladders lift in one pass
    ladders_met = {}
    for rec in res.jump_records:
        ks = jump_intervals(grid, rec)
        for w in set(ks // WINDOW):
            first = ks[ks // WINDOW == w][0]
            ladders_met.setdefault(w, set()).add(round(spacings[first]))
    assert max(len(s) for s in ladders_met.values()) >= 3


@pytest.mark.parametrize("n_points", [2, WINDOW + 1, WINDOW + 2])
@pytest.mark.parametrize("chunk_size, snapshot_counts", [(1000, ()), (7, (5,)), (1, (2, 9))])
def test_mcwf_window_edges_are_bitwise_the_reference(n_points, chunk_size, snapshot_counts):
    # 1, WINDOW and WINDOW + 1 intervals: one short window, one full, one full and one short
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.03, n_exc=2)
    grid = np.linspace(0.0, 150.0, n_points)
    n_traj = 40 if chunk_size == 1 else 120
    res = assert_bitwise_the_reference(p, "atom", grid, n_traj, chunk_size, snapshot_counts)
    assert sum(len(r) for r in res.jump_records) > n_traj // 2


@pytest.mark.parametrize("n_exc", [1, 2])
def test_mcwf_on_a_one_point_grid_is_bitwise_the_reference(n_exc):
    # no interval to move through: every average is the initial projector
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.03, n_exc=n_exc)
    res = assert_bitwise_the_reference(p, "atom", np.array([0.0]), 30, 7, (4, 20))
    v0 = jc_initial_ket(p, "atom").amplitudes
    assert res.counts == (4, 20, 30)
    for avg in res.averages:
        np.testing.assert_array_equal(avg, np.outer(v0, v0.conj())[None])
    assert not any(res.jump_records)


@pytest.mark.parametrize("chunk_size, snapshot_counts", [(1000, (30,)), (7, ()), (1, (5,))])
def test_mcwf_rows_crossing_again_in_catch_up_are_bitwise_the_reference(chunk_size, snapshot_counts):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.05, n_exc=3)
    grid = np.linspace(0.0, 300.0, 31)
    n_traj = 40 if chunk_size == 1 else 120
    res = assert_bitwise_the_reference(p, "atom", grid, n_traj, chunk_size, snapshot_counts)
    # a row that jumps again in a later interval of the same window crossed in catch-up
    again = 0
    for rec in res.jump_records:
        ks = jump_intervals(grid, rec)
        again += int(np.sum((np.diff(ks) > 0) & (np.diff(ks // WINDOW) == 0)))
    assert again >= 10


def assert_same_bytes(a, b):
    # assert_array_equal takes -0.0 for 0.0; the bytes tell them apart
    assert a.counts == b.counts
    assert a.jump_records == b.jump_records
    assert a.grid.tobytes() == b.grid.tobytes()
    assert [x.tobytes() for x in a.averages] == [y.tobytes() for y in b.averages]
    assert a.stderr.tobytes() == b.stderr.tobytes()


@pytest.mark.parametrize("name", ["mcwf_dfs", "mcwf_mirror", "mcwf_mirror_two_quanta"])
def test_shipped_mcwf_configs_are_bytewise_the_reference(name):
    cfg = load_config(CONFIGS / f"{name}.json")
    me, psi0 = build_model(cfg), jc_initial_ket(cfg.params, cfg.initial)
    args = (me, psi0, cfg.grid.times(), cfg.mcwf.n_traj, 7)
    res = mcwf_unravel(*args)
    assert_same_bytes(res, reference_mcwf_unravel(*args))
    never = sum(1 for rec in res.jump_records if not rec) / cfg.mcwf.n_traj
    assert never > 0.4 if name == "mcwf_dfs" else never == 0.0
    if name == "mcwf_mirror_two_quanta":  # every row lifts after a second jump
        assert {len(rec) for rec in res.jump_records} == {2}


def test_mcwf_advances_unjumped_trajectories_as_one_row(monkeypatch):
    # no trajectory of an undamped model jumps: every product is the shared row's
    p, me, space = jc_setup(g11=0.0, g22=0.0, g12=0.0)
    t = np.linspace(0.0, 300.0, 31)
    rows = []

    def counted(x, m):
        rows.append(len(x))
        return _rowwise(x, m)

    monkeypatch.setattr(trajectories, "_rowwise", counted)
    res = mcwf_unravel(me, jc_initial_ket(p), t, n_traj=1000, seed=5)
    assert not any(res.jump_records)
    assert sum(rows) == len(t) - 1


def test_mcwf_normalizes_unjumped_trajectories_once_per_run(monkeypatch):
    # the shared row's unit rows serve every unjumped trajectory at every grid point
    p, me, space = jc_setup(g11=0.0, g22=0.0, g12=0.0)
    t = np.linspace(0.0, 300.0, 31)
    rows = []

    def counted(x, norm2):
        rows.append(len(x))
        return _unit_rows(x, norm2)

    monkeypatch.setattr(trajectories, "_unit_rows", counted)
    res = mcwf_unravel(me, jc_initial_ket(p), t, n_traj=1000, seed=5)
    assert not any(res.jump_records)
    assert sum(rows) == len(t)


def test_first_crossings_match_a_scan():
    rng = np.random.default_rng(4)
    norms = np.concatenate([[1.0], np.sort(rng.random(40))[::-1]])
    norms[[3, 9, 10, 25]] = [np.nan, 0.5, np.nan, 2.0]  # NaN, a rise, a value above 1
    norms[-6:] = np.nan
    ties = norms[1:-6][~np.isnan(norms[1:-6])]
    r = np.concatenate([rng.random(200), ties, [0.0, 1.0, np.nextafter(norms[1], 2.0)]])
    scan = [next((k for k, v in enumerate(norms[1:]) if v < x), len(norms) - 1) for x in r]
    np.testing.assert_array_equal(_first_crossings(norms, r), scan)
    assert _first_crossings(np.full(5, np.nan), np.array([0.5])).tolist() == [4]


def test_unit_rows_accumulate_like_the_complex_division():
    rng = np.random.default_rng(11)
    for rows, d in ((1000, 8), (37, 6)):
        sums = {"divided": np.zeros((d, d), dtype=complex), "scaled": np.zeros((d, d), dtype=complex)}
        squares = {"divided": np.zeros((d, d)), "scaled": np.zeros((d, d))}
        for _ in range(3):
            x = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
            xf = x.view(float)
            signed = rng.random(xf.shape) < 0.3
            signed[:, 4:6] = True  # one column of zeros only: its sums are zero
            xf[signed] = np.where(rng.random(signed.sum()) < 0.5, 0.0, -0.0)
            norm2 = _norm2(x)
            forms = {"divided": x / np.sqrt(norm2)[:, None], "scaled": _unit_rows(x, norm2)}
            np.testing.assert_array_equal(forms["scaled"], forms["divided"])
            assert forms["scaled"].tobytes() != forms["divided"].tobytes()  # zero signs differ
            for name, psi in forms.items():
                p = psi.real**2 + psi.imag**2
                sums[name] += psi.T @ psi.conj()
                squares[name] += p.T @ p
            assert sums["scaled"].tobytes() == sums["divided"].tobytes()
            assert squares["scaled"].tobytes() == squares["divided"].tobytes()


def script_draws(monkeypatch, scripts):
    """Make both MCWF implementations draw ``scripts[j]`` for trajectory j, then 0.0."""

    class Streams:
        def __init__(self, seed, js):
            self.left = [list(scripts.get(int(j), ())) for j in js]

        def random(self, rows):
            picked = np.arange(len(self.left))[rows]
            return np.array([self.left[i].pop(0) if self.left[i] else 0.0 for i in picked])

    class Rng:
        def __init__(self, entropy):
            self.left = list(scripts.get(entropy[1], ()))

        def random(self):
            return self.left.pop(0) if self.left else 0.0

    monkeypatch.setattr(trajectories, "_Streams", Streams)
    monkeypatch.setattr(np.random, "default_rng", Rng)


def test_mcwf_lifts_after_a_jump_only_the_levels_that_fit(monkeypatch):
    # |1> decays once, at t ~ 3.3 in interval 0, to |0>, which never crosses again
    me, space, _ = cavity_only_me(gamma=0.08)
    t = np.linspace(0.0, 100.0, 11)
    script_draws(monkeypatch, {0: [math.exp(-0.08 * 3.3), 0.5, 0.5]})
    rows = []

    def counted(x, m):
        rows.append(len(x))
        return _rowwise(x, m)

    monkeypatch.setattr(trajectories, "_rowwise", counted)
    res = mcwf_unravel(me, KetState(space, np.eye(3)[1]), t, n_traj=1, seed=0)
    [(t_jump, channel)] = res.jump_records[0]
    assert channel == 0 and 3.2 < t_jump <= 3.3
    levels = math.ceil(math.log2(10.0 / grid_resolution(t)))  # J
    pos = round((t_jump - t[0]) * 2**levels / 10.0)
    post_jump = (2**levels - pos).bit_count()  # one product per level that fits
    # the shared row, round one (levels 1..J), the jump target, the rest of
    # interval 0 and one product per later interval
    assert sum(rows) == 10 + levels + 1 + post_jump + 9
    assert post_jump < levels + 1


@pytest.mark.parametrize("n_points", [31, 34])
@pytest.mark.parametrize("chunk_size, snapshot_counts", [(1000, ()), (7, (1, 3, 7, 8)), (1, (2, 5))])
def test_mcwf_edge_rows_are_bytewise_the_reference(monkeypatch, n_points, chunk_size,
                                                    snapshot_counts):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.02, g12=0.01, k_mirror=0.03, n_exc=2)
    me, psi0 = build_jc(p), jc_initial_ket(p, "atom")
    t = np.linspace(0.0, 10.0 * (n_points - 1), n_points)
    b = me.B
    survival = [np.linalg.norm(expm(-1j * b * tk) @ psi0.amplitudes) ** 2 for tk in t]
    first = (survival[0] + survival[1]) / 2.0  # crosses in interval 0
    last = (survival[-2] + survival[-1]) / 2.0  # crosses in the last interval
    # draws: r, then per jump the channel draw and the next r; 0.0 never crosses
    scripts = {0: [0.0], 1: [first, 0.5], 2: [last, 0.5], 3: [first, 0.3, 0.99, 0.7, 0.6, 0.2, 0.0],
               4: [last, 0.9, 0.999]}
    rng = np.random.default_rng(n_points)
    for j in range(5, 24):
        scripts[j] = [*rng.uniform(0.01, 0.99, size=9), 0.0]
    script_draws(monkeypatch, scripts)
    args = (me, psi0, t, 24, 3, snapshot_counts, chunk_size)
    res = mcwf_unravel(*args)
    assert_same_bytes(res, reference_mcwf_unravel(*args))
    records = res.jump_records
    assert records[0] == ()
    assert jump_intervals(t, records[1]).tolist() == [0]
    assert jump_intervals(t, records[2]).tolist() == [n_points - 2]
    assert jump_intervals(t, records[3])[:2].tolist() == [0, 0]  # again in the same interval
    assert jump_intervals(t, records[4])[0] == n_points - 2
    assert sum(len(rec) for rec in records[5:]) > 19


def test_mcwf_row_crossing_without_jump_weight_leaves_the_shared_row(monkeypatch):
    # a ket 1e-10 short of unit norm in an undamped model: r between its norm^2
    # and 1 crosses in interval 0 with nothing to jump to, and the row is
    # renormalized there instead
    p, me, space = jc_setup(g11=0.0, g22=0.0, g12=0.0)
    v0 = (1.0 - 1e-10) * jc_initial_ket(p).amplitudes
    t = np.linspace(0.0, 300.0, 31)
    args = (me, v0, t, 12, 3, (4,), 5)
    script_draws(monkeypatch, {})
    shared = mcwf_unravel(*args)
    script_draws(monkeypatch, {6: [1.0 - 1e-10, 0.5, 1.0 - 1.5e-10]})
    res = mcwf_unravel(*args)
    assert not any(res.jump_records)
    assert_same_bytes(res, reference_mcwf_unravel(*args))
    assert res.averages[-1].tobytes() != shared.averages[-1].tobytes()


def test_mcwf_rejects_a_ket_on_the_wrong_space():
    p, me, space = jc_setup()
    assert space.factor_dims == (2, 4)
    swapped = KetState(HilbertSpace((4, 2)), np.eye(8)[1])
    grid = np.linspace(0.0, 10.0, 3)
    with pytest.raises(ValueError, match="initial ket lives on the wrong space"):
        mcwf_unravel(me, swapped, grid, 10, 1)
    with pytest.raises(ValueError, match="initial ket lives on the wrong space"):
        mcwf_unravel(me, np.eye(10)[0], grid, 10, 1)


@pytest.mark.parametrize("chunk_size", [0, -3])
def test_mcwf_rejects_chunk_size_below_one(chunk_size):
    # a negative chunk_size used to run only the trajectories past the
    # first snapshot count and still divide by n_traj
    p, me, space = jc_setup()
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        mcwf_unravel(me, jc_initial_ket(p), np.linspace(0.0, 10.0, 3), 10, 1,
                     snapshot_counts=(5,), chunk_size=chunk_size)


def test_mcwf_rejects_negative_seed():
    p, me, space = jc_setup()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        mcwf_unravel(me, jc_initial_ket(p), np.linspace(0.0, 10.0, 3), 10, -1)


@pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, math.inf], [math.nan], [-math.inf, 0.0]])
def test_engines_reject_a_time_grid_that_is_not_finite(grid):
    # NaN fails every comparison and an infinite time gives an infinite or
    # NaN spacing, so an order check alone lets these grids through
    p, me, space = jc_setup()
    msg = "time grid must be finite and strictly increasing"
    with pytest.raises(ValueError, match=msg):
        integrate(me, jc_initial(p), grid)
    with pytest.raises(ValueError, match=msg):
        mcwf_unravel(me, jc_initial_ket(p), grid, 10, 1)


@pytest.mark.parametrize("grid", [[0.0, 5e-311, 1e-310], [0.0, 5e-324], [-1e-310, 0.0]])
def test_engines_reject_a_time_grid_whose_resolution_underflows(grid):
    # 64 ulp of a subnormal largest time is 0: no spacing could be keyed by it
    p, me, space = jc_setup()
    msg = "time grid is too fine: its float resolution underflows to 0"
    with pytest.raises(ValueError, match=msg):
        integrate(me, jc_initial(p), grid)
    with pytest.raises(ValueError, match=msg):
        mcwf_unravel(me, jc_initial_ket(p), grid, 10, 1)
    # one point propagates nothing, and at t = 0 its resolution is 0 too
    assert len(integrate(me, jc_initial(p), grid[:1])) == 1
