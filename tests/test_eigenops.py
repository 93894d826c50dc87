import numpy as np
import pytest
from scipy.linalg import expm

from cobath.core import HilbertSpace, Operator, make_atom_ops, make_cavity_ops
from cobath.eigenops import BLOCK_DROP_TOL, decompose, eigenoperators, verify_rwa_conservation
from cobath.jc import JCParams, _hamiltonians, jc_space
from conftest import random_hermitian

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SM = SP.conj().T


def qubit_h(omega0=1.0):
    return Operator(HilbertSpace((2,)), 0.5 * omega0 * SZ)


def test_decompose_qubit():
    d = decompose(qubit_h())
    assert d.eigenvalues == (-0.5, 0.5)
    for p in d.projectors:
        assert np.trace(p.matrix).real == pytest.approx(1.0)


def test_decompose_degenerate_merge():
    d = decompose(Operator(HilbertSpace((3,)), np.eye(3)))
    assert len(d.eigenvalues) == 1
    np.testing.assert_allclose(d.projectors[0].matrix, np.eye(3), atol=1e-12)


def test_decompose_rejects_non_hermitian():
    sp = HilbertSpace((2,))
    with pytest.raises(ValueError, match="Hermitian"):
        decompose(Operator(sp, np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_decompose_resonant_jc_dressed_splitting():
    # one-excitation block of the coupled Hamiltonian splits by +-eps
    omega0, eps = 1.0, 0.1
    sp = HilbertSpace((2, 2))
    atom = make_atom_ops(sp, 0)
    cav = make_cavity_ops(sp, 1)
    h = (
        0.5 * omega0 * atom["S_z"]
        + omega0 * cav["n_op"]
        + eps * (cav["a"] @ atom["S_plus"])
        + eps * (cav["a_dag"] @ atom["S_minus"])
    )
    d = decompose(h)
    # analytic 2x2 diagonalization of the one-excitation sector: 0.5 +- 0.1;
    # ground at -0.5 and the truncated top ket at 1.5 stay bare
    np.testing.assert_allclose(sorted(d.eigenvalues), [-0.5, 0.4, 0.6, 1.5], atol=1e-12)


def test_projector_completeness_and_orthogonality(rng):
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Operator(HilbertSpace((6,)), (m + m.conj().T) / 2)
    d = decompose(h)
    total = sum(p.matrix for p in d.projectors)
    np.testing.assert_allclose(total, np.eye(6), atol=1e-10)
    for i, p in enumerate(d.projectors):
        for j, q in enumerate(d.projectors):
            want = p.matrix if i == j else np.zeros((6, 6))
            np.testing.assert_allclose(p.matrix @ q.matrix, want, atol=1e-10)


def test_sigma_x_splits_into_ladder_parts():
    d = decompose(qubit_h())
    parts = eigenoperators(Operator(HilbertSpace((2,)), SX), d)
    by_freq = {round(e.frequency, 9): e.op.matrix for e in parts}
    assert set(by_freq) == {1.0, -1.0}
    np.testing.assert_allclose(by_freq[1.0], SM, atol=1e-12)
    np.testing.assert_allclose(by_freq[-1.0], SP, atol=1e-12)


def test_identity_has_only_zero_frequency():
    d = decompose(qubit_h())
    parts = eigenoperators(Operator(HilbertSpace((2,)), np.eye(2)), d)
    assert len(parts) == 1
    assert parts[0].frequency == pytest.approx(0.0)
    np.testing.assert_allclose(parts[0].op.matrix, np.eye(2), atol=1e-12)


def test_mode_quadrature_splits_into_a_and_adag():
    # a + a_dag against the bare Hamiltonian: lowering part is a, raising a_dag
    omega0 = 1.0
    sp = HilbertSpace((2, 4))
    atom = make_atom_ops(sp, 0)
    cav = make_cavity_ops(sp, 1)
    h_bare = 0.5 * omega0 * atom["S_z"] + omega0 * cav["n_op"]
    d = decompose(h_bare)
    parts = eigenoperators(cav["a"] + cav["a_dag"], d)
    by_freq = {round(e.frequency, 9): e.op.matrix for e in parts}
    assert set(by_freq) == {1.0, -1.0}
    np.testing.assert_allclose(by_freq[1.0], cav["a"].matrix, atol=1e-12)
    np.testing.assert_allclose(by_freq[-1.0], cav["a_dag"].matrix, atol=1e-12)


def _random_setup(rng, dim=6):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = Operator(HilbertSpace((dim,)), (m + m.conj().T) / 2)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = Operator(h.space, (a + a.conj().T) / 2)
    return h, a


def test_ladder_commutator_identity(rng):
    h, a = _random_setup(rng)
    d = decompose(h)
    for part in eigenoperators(a, d):
        comm = h.matrix @ part.op.matrix - part.op.matrix @ h.matrix
        want = -part.frequency * part.op.matrix
        assert np.max(np.abs(comm - want)) <= 1e-9 * max(1.0, float(np.linalg.norm(part.op.matrix)))


def test_dagger_maps_frequency_to_negative(rng):
    h, a = _random_setup(rng)
    parts = eigenoperators(a, decompose(h))
    by_freq = {e.frequency: e.op.matrix for e in parts}
    for w, m in by_freq.items():
        partner = min(by_freq, key=lambda v: abs(v + w))
        assert abs(partner + w) < 1e-8
        np.testing.assert_allclose(m.conj().T, by_freq[partner], atol=1e-10)


def test_completeness(rng):
    h, a = _random_setup(rng)
    parts = eigenoperators(a, decompose(h))
    total = sum(p.op.matrix for p in parts)
    assert np.max(np.abs(total - a.matrix)) < 1e-10


def test_interaction_picture_phase(rng):
    h, a = _random_setup(rng, dim=5)
    parts = eigenoperators(a, decompose(h))
    for t in rng.uniform(-3.0, 3.0, size=5):
        u = expm(1j * h.matrix * t)
        for part in parts:
            rotated = u @ part.op.matrix @ u.conj().T
            want = np.exp(-1j * part.frequency * t) * part.op.matrix
            scale = max(1.0, float(np.linalg.norm(part.op.matrix)))
            assert np.max(np.abs(rotated - want)) <= 1e-8 * scale


def test_zero_blocks_dropped():
    # sigma_z against sigma_z: only the zero-frequency (diagonal) part survives
    d = decompose(qubit_h())
    parts = eigenoperators(Operator(HilbertSpace((2,)), SZ), d)
    assert [p.frequency for p in parts] == [0.0]


def _bath_mode(nb=3):
    sp = HilbertSpace((nb,))
    b = np.diag(np.sqrt(np.arange(1, nb)), 1).astype(complex)
    return sp, b


def test_rwa_conservation_resonant():
    omega0 = 1.0
    sp_b, b = _bath_mode()
    h_s = qubit_h(omega0)
    h_b = Operator(sp_b, omega0 * (b.conj().T @ b))
    pairs = [
        (Operator(h_s.space, SM), Operator(sp_b, b.conj().T)),
        (Operator(h_s.space, SP), Operator(sp_b, b)),
    ]
    assert verify_rwa_conservation(h_s, h_b, pairs) < 1e-12


def test_rwa_violated_by_counter_rotating_term():
    omega0 = 1.0
    sp_b, b = _bath_mode()
    h_s = qubit_h(omega0)
    h_b = Operator(sp_b, omega0 * (b.conj().T @ b))
    pairs = [
        (Operator(h_s.space, SM), Operator(sp_b, b.conj().T)),
        (Operator(h_s.space, SP), Operator(sp_b, b)),
        (Operator(h_s.space, SP), Operator(sp_b, b.conj().T)),  # counter-rotating
    ]
    assert verify_rwa_conservation(h_s, h_b, pairs) > 0.1


def test_rwa_detuned_residual_matches_direct_commutator():
    omega0, omega_b = 1.0, 1.3
    sp_b, b = _bath_mode()
    h_s = qubit_h(omega0)
    h_b = Operator(sp_b, omega_b * (b.conj().T @ b))
    pairs = [
        (Operator(h_s.space, SM), Operator(sp_b, b.conj().T)),
        (Operator(h_s.space, SP), Operator(sp_b, b)),
    ]
    residual = verify_rwa_conservation(h_s, h_b, pairs)
    # independent evaluation: [H, sm(x)bdag + sp(x)b] = (w_b - w_0)(sm(x)bdag - sp(x)b)
    k = np.kron(SM, b.conj().T) - np.kron(SP, b)
    oracle = abs(omega_b - omega0) * float(np.linalg.norm(k))
    assert residual == pytest.approx(oracle, rel=1e-12)


def test_rwa_dimension_mismatch():
    sp_b, b = _bath_mode()
    h_s = qubit_h()
    h_b = Operator(sp_b, b.conj().T @ b)
    with pytest.raises(ValueError):
        verify_rwa_conservation(h_s, h_b, [(Operator(sp_b, b), Operator(sp_b, b))])


# ------------------------------------------------- pairwise-projector oracle

def pairwise_eigenoperators(A, decomp, drop_tol=BLOCK_DROP_TOL):
    """Reference split: P_i A P_j for every cluster pair (i, j).

    Same rules as ``eigenoperators``: a pair is skipped when its block has
    no entry of modulus >= drop_tol, pairs are visited in row-major order
    and join the first frequency within the decomposition's tolerance, and
    sums with Frobenius norm below drop_tol are dropped.
    """
    projs = [p.matrix for p in decomp.projectors]
    freqs, sums = [], []
    for i, eps in enumerate(decomp.eigenvalues):
        for j, eps_p in enumerate(decomp.eigenvalues):
            block = projs[i] @ A.matrix @ projs[j]
            if np.max(np.abs(block)) < drop_tol:
                continue
            w = eps_p - eps
            key = next(
                (k for k, f in enumerate(freqs) if abs(f - w) <= decomp.degeneracy_tol), None
            )
            if key is None:
                freqs.append(w)
                sums.append(np.zeros_like(A.matrix))
                key = -1
            sums[key] = sums[key] + block
    order = sorted(range(len(freqs)), key=freqs.__getitem__)
    return [(freqs[k], sums[k]) for k in order if np.linalg.norm(sums[k]) >= drop_tol]


def _assert_matches_oracle(a, d, atol=1e-14):
    parts, want = eigenoperators(a, d), pairwise_eigenoperators(a, d)
    assert [e.frequency for e in parts] == [w for w, _ in want]
    for e, (_, m) in zip(parts, want):
        np.testing.assert_allclose(e.op.matrix, m, rtol=0.0, atol=atol)


def _assert_jc_split_matches_oracle(p, dressed, atol):
    atom, cav, h_bare, h_full = _hamiltonians(p, jc_space(p))
    d = decompose(h_full if dressed else h_bare)
    for a in (atom["S_plus"] + atom["S_minus"], cav["a"] + cav["a_dag"]):
        _assert_matches_oracle(a, d, atol)


@pytest.mark.parametrize("omega0", [0.7, 1.0, 1.3])
@pytest.mark.parametrize("n_exc", [0, 1, 2, 13, 30])
def test_bare_jc_split_matches_pairwise_oracle_bitwise(n_exc, omega0):
    p = JCParams(omega0=omega0, eps=0.1, g11=0.01, g22=0.01, n_exc=n_exc)
    _assert_jc_split_matches_oracle(p, dressed=False, atol=0.0)


@pytest.mark.parametrize("n_exc", [13, 30])
def test_dressed_jc_split_matches_pairwise_oracle(n_exc):
    p = JCParams(omega0=1.0, eps=0.1, g11=0.01, g22=0.01, n_exc=n_exc)
    _assert_jc_split_matches_oracle(p, dressed=True, atol=1e-14)


def _rotated(rng, spectrum):
    # the given spectrum in a random unitary basis
    q, _ = np.linalg.qr(random_hermitian(rng, len(spectrum)))
    return Operator(HilbertSpace((len(spectrum),)), q @ np.diag(spectrum) @ q.conj().T)


@pytest.mark.parametrize("dim", range(2, 13))
def test_random_split_matches_pairwise_oracle(dim, rng):
    h = Operator(HilbertSpace((dim,)), random_hermitian(rng, dim))
    _assert_matches_oracle(Operator(h.space, random_hermitian(rng, dim)), decompose(h))


def test_degenerate_cluster_split_matches_pairwise_oracle(rng):
    # a threefold cluster and equal spacings, so several pairs share a frequency
    h = _rotated(rng, [0.0, 1.0, 1.0, 1.0, 2.0, 3.5])
    d = decompose(h)
    assert len(d.eigenvalues) == 4
    _assert_matches_oracle(Operator(h.space, random_hermitian(rng, 6)), d)


def test_frequency_joins_the_first_match_not_the_nearest(rng):
    # with tol 0.1: pair (1, 2) opens 1.16 after (0, 1) opened 1.0; pair
    # (2, 3) at 1.09 is within tol of both and must join 1.0
    h = _rotated(rng, [0.0, 1.0, 2.16, 3.25])
    d = decompose(h, degeneracy_tol=0.1)
    a = Operator(h.space, random_hermitian(rng, 4))
    parts = eigenoperators(a, d)
    assert [round(e.frequency, 9) for e in parts if e.frequency > 0] == [1.0, 1.16, 2.16, 3.25]
    _assert_matches_oracle(a, d)


def test_block_below_drop_tol_is_dropped_before_summing():
    # each entry of the (0, 1) block is under drop_tol, their Frobenius sum is not
    h = Operator(HilbertSpace((4,)), np.diag([0.0, 0.0, 1.0, 1.0]))
    a = np.zeros((4, 4), dtype=complex)
    a[:2, 2:] = 0.9 * BLOCK_DROP_TOL
    a = Operator(h.space, a + a.conj().T)
    d = decompose(h)
    assert eigenoperators(a, d) == []
    _assert_matches_oracle(a, d)
