import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cobath.core import HilbertSpace, Operator
from cobath.eigenops import (
    BLOCK_DROP_TOL,
    SpectralDecomposition,
    decompose,
    eigenoperators,
)
from cobath.jc import JCParams, _hamiltonians, build_jc, excitation_number, jc_initial, jc_space
from cobath.master_equation import invariant_support, linear_system
from conftest import random_hermitian
from operator_reference import make_atom_ops, make_cavity_ops, verify_rwa_conservation
from split_reference import build_dressed_jc, embedded_hamiltonians, full_product_eigenoperators
from support_reference import dense_invariant_support, reference_invariant_support

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


# ------------------------------------------------------ whole-space oracle

def whole_space_decompose(H):
    """Reference decomposition: one ``eigh`` of the whole matrix, with the
    clustering rule of ``decompose``."""
    evals, vecs = np.linalg.eigh((H.matrix + H.matrix.conj().T) / 2.0)
    tol = 1e-8 * float(np.max(np.abs(evals)))
    starts = np.flatnonzero(np.diff(evals) > tol) + 1
    clustered = tuple(float(np.mean(run)) for run in np.split(evals, starts))
    return SpectralDecomposition(H.space, clustered, vecs, (0, *starts.tolist()), tol)


def _jc_splits(p, dressed):
    # (block-wise, whole-space) eigenoperators of both couplings
    atom, cav, h_bare, h_full = _hamiltonians(p, jc_space(p))
    h = h_full if dressed else h_bare
    d, ref = decompose(h), whole_space_decompose(h)
    couplings = (atom["S_plus"] + atom["S_minus"], cav["a"] + cav["a_dag"])
    return d, ref, [(eigenoperators(a, d), eigenoperators(a, ref)) for a in couplings]


@pytest.mark.parametrize("omega0", [0.7, 1.0, 1.3])
@pytest.mark.parametrize("n_exc", [0, 1, 2, 13, 30])
def test_bare_jc_decompose_matches_whole_space_eigh_bitwise(n_exc, omega0):
    p = JCParams(omega0=omega0, eps=0.1, g11=0.01, g22=0.01, n_exc=n_exc)
    d, ref, splits = _jc_splits(p, dressed=False)
    assert d.eigenvalues == ref.eigenvalues
    assert d.starts == ref.starts
    for parts, want in splits:
        assert [e.frequency for e in parts] == [e.frequency for e in want]
        for e, w in zip(parts, want):
            np.testing.assert_array_equal(e.op.matrix, w.op.matrix)


@pytest.mark.parametrize("n_exc", [2, 13, 30])
def test_dressed_jc_decompose_matches_whole_space_eigh(n_exc):
    p = JCParams(omega0=1.3, eps=0.1, g11=0.01, g22=0.01, n_exc=n_exc)
    d, ref, splits = _jc_splits(p, dressed=True)
    np.testing.assert_allclose(d.eigenvalues, ref.eigenvalues, rtol=0.0, atol=1e-12)
    for parts, want in splits:
        assert len(parts) == len(want)
        for e, w in zip(parts, want):
            assert abs(e.frequency - w.frequency) <= 1e-12
            np.testing.assert_allclose(e.op.matrix, w.op.matrix, rtol=0.0, atol=1e-12)


def test_decompose_follows_blocks_through_chains(rng):
    # tridiagonal chains of 5 and 3 states and a lone state, in a shuffled
    # basis: a block is found only by following the chain link by link
    sizes = [5, 3, 1]
    h = np.zeros((9, 9), dtype=complex)
    start = 0
    for s in sizes:
        idx = np.arange(start, start + s)
        h[idx, idx] = rng.normal(size=s)
        h[idx[:-1], idx[1:]] = rng.normal(size=s - 1) + 1j * rng.normal(size=s - 1)
        start += s
    block = np.repeat(np.arange(len(sizes)), sizes)
    h += np.triu(h, 1).conj().T
    perm = rng.permutation(9)
    H = Operator(HilbertSpace((9,)), h[np.ix_(perm, perm)])
    block = block[perm]
    d, ref = decompose(H), whole_space_decompose(H)
    np.testing.assert_allclose(d.eigenvalues, ref.eigenvalues, rtol=0.0, atol=1e-12)
    for v in d.vectors.T:
        assert len(set(block[v != 0])) == 1  # each eigenvector lives in one block

def test_decompose_orders_exact_ties_by_block():
    # a 2 x 2 block on {1, 4} and lone states 0, 2, 3 carrying its exact eigenvalues
    block = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, -0.4]])
    lam, vecs = np.linalg.eigh(block[None])  # as decompose diagonalizes one block of size 2
    h = np.zeros((5, 5), dtype=complex)
    h[np.ix_([1, 4], [1, 4])] = block
    h[[0, 2, 3], [0, 2, 3]] = lam[0, 1], lam[0, 0], lam[0, 0]
    d = decompose(Operator(HilbertSpace((5,)), h))
    assert d.starts == (0, 3)
    np.testing.assert_allclose(d.eigenvalues, lam[0], rtol=0.0, atol=1e-15)
    # within a cluster: smaller blocks first, blocks of one size by least index
    assert [np.flatnonzero(v).tolist() for v in d.vectors.T] == [[2], [3], [1, 4], [0], [1, 4]]
    np.testing.assert_array_equal(d.vectors[np.ix_([1, 4], [2, 4])], vecs[0])


# At omega0 = 1.0 and n_exc = 30 the exact support is 129, not 1 + 4 n_exc:
# 0.1 (sqrt(31) + sqrt(30)) > omega0, so the upper dressed level of sector
# n lies above the lower one of sector n + 1, and 56 entries of the
# positive-frequency components raise N by one.  The hierarchy rejects that
# split.  A whole-space eigh smears roundoff into every pair of sectors
# (a support of 2532 to 4100 entries).
@pytest.mark.parametrize("omega0, support_size, raising", [(1.3, 121, 0), (1.0, 129, 56)])
def test_dressed_split_keeps_excitation_sectors_exact(omega0, support_size, raising):
    p = JCParams(omega0=omega0, eps=0.1, g11=0.01, g22=0.01, n_exc=30)
    me = build_dressed_jc(p)
    support = invariant_support(jc_initial(p).matrix, linear_system(me)[1])
    assert support.size == support_size
    n = np.round(np.diag(excitation_number(jc_space(p)).matrix).real)
    delta_n = n[:, None] - n[None, :]  # entry (i, j) takes sector n_j to n_i
    emitting = [eo.op.matrix for fam in me.couplings for eo in fam if eo.frequency > 0]
    assert all(np.all(np.isin(delta_n[m != 0], (-1, 1))) for m in emitting)
    assert sum(np.count_nonzero(delta_n[m != 0] == 1) for m in emitting) == raising


# ------------------------------------------------- full-product split oracle

def bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def _assert_same_components(parts, want, exact=True):
    assert [e.frequency for e in parts] == [e.frequency for e in want]
    assert [(e.op.label, e.source_index) for e in parts] == [
        (e.op.label, e.source_index) for e in want
    ]
    for e, w in zip(parts, want):
        if exact:
            np.testing.assert_array_equal(bits(e.op.matrix), bits(w.op.matrix))
        else:
            np.testing.assert_array_equal(e.op.matrix, w.op.matrix)


def _jc_couplings(p):
    atom, cav, h_bare, h_full = _hamiltonians(p, jc_space(p))
    return (atom["S_plus"] + atom["S_minus"], cav["a"] + cav["a_dag"]), h_bare, h_full


@pytest.mark.parametrize("dressed", [False, True])
@pytest.mark.parametrize("eps", [0.1, -0.07 + 0.05j])
@pytest.mark.parametrize("omega0", [0.7, 1.0, 1.3])
@pytest.mark.parametrize("n_exc", [0, 1, 2, 13, 30])
def test_jc_split_is_bitwise_the_full_product_split(n_exc, omega0, eps, dressed):
    p = JCParams(omega0=omega0, eps=eps, g11=0.01, g22=0.01, n_exc=n_exc)
    couplings, h_bare, h_full = _jc_couplings(p)
    d = decompose(h_full if dressed else h_bare)
    if not dressed:
        assert d.basis is not None  # the bare H is diagonal: the re-indexing path
    for k, a in enumerate(couplings):
        _assert_same_components(eigenoperators(a, d, k), full_product_eigenoperators(a, d, k))


@pytest.mark.parametrize("dim", range(1, 13))
def test_random_split_is_the_full_product_split(dim, rng):
    # dense and sparse couplings against a dense, a sparse and a diagonal H
    for kind in ("dense", "sparse", "diagonal"):
        h = random_hermitian(rng, dim)
        if kind == "sparse":
            h[rng.random((dim, dim)) < 0.7] = 0
            h = h + h.conj().T
        if kind == "diagonal":
            h = np.diag(rng.integers(0, 3, size=dim) + 1e-10 * rng.normal(size=dim))
        H = Operator(HilbertSpace((dim,)), h)
        a = random_hermitian(rng, dim)
        a[rng.random((dim, dim)) < 0.4] = 0
        a = Operator(H.space, a + a.conj().T)
        for tol in (None, 0.05, 0.5):
            d = decompose(H, tol)
            assert d.basis is not None or kind != "diagonal"
            # against a permutation, only the sign of a zero may differ
            _assert_same_components(
                eigenoperators(a, d), full_product_eigenoperators(a, d), exact=d.basis is None
            )


def test_basis_is_set_only_for_a_permutation_of_unit_columns():
    space = HilbertSpace((3,))
    perm = np.eye(3)[:, [2, 0, 1]]
    d = SpectralDecomposition(space, (0.0, 1.0, 2.0), perm, (0, 1, 2), 1e-8)
    np.testing.assert_array_equal(d.basis, [2, 0, 1])
    for v in (-perm, 1j * perm, perm + 1e-300 * np.eye(3)[:, [1, 2, 0]]):
        assert SpectralDecomposition(space, (0.0, 1.0, 2.0), v, (0, 1, 2), 1e-8).basis is None


@pytest.mark.parametrize("eps", [0.1, -0.1, 0.1j, -0.1 - 0.05j, 0.0, -0.0, complex(-0.0, -0.0)])
@pytest.mark.parametrize("omega0", [0.7, 1.0, 1.3, 123.456])
@pytest.mark.parametrize("n_exc, n_max", [(0, None), (1, None), (2, 7), (13, None), (30, None)])
def test_jc_operators_are_bitwise_the_embedded_products(n_exc, n_max, omega0, eps):
    p = JCParams(omega0=omega0, eps=eps, g11=0.01, g22=0.01, n_exc=n_exc, n_max=n_max)
    space = jc_space(p)
    atom, cav, h_bare, h_full = _hamiltonians(p, space)
    want_atom, want_cav, want_bare, want_full = embedded_hamiltonians(p, space)
    pairs = [(atom[k], want_atom[k]) for k in ("S_plus", "S_minus")]
    pairs += [(cav[k], want_cav[k]) for k in ("a", "a_dag")]
    pairs += [(h_bare, want_bare), (h_full, want_full)]
    n_op = want_atom["S_plus"] @ want_atom["S_minus"] + want_cav["n_op"]
    pairs.append((excitation_number(space), n_op))
    for got, want in pairs:
        np.testing.assert_array_equal(bits(got.matrix), bits(want.matrix))


def test_cluster_means_are_each_runs_mean():
    # clusters of many lengths: each mean must carry the bits of np.mean of its run
    rng = np.random.default_rng(7)
    sizes = [1, 2, 3, 7, 8, 9, 17, 2, 1, 40]
    centres = np.cumsum(rng.uniform(1.0, 2.0, size=len(sizes)))
    diag = np.concatenate([c + 1e-12 * rng.normal(size=s) for c, s in zip(centres, sizes)])
    d = decompose(Operator(HilbertSpace((len(diag),)), np.diag(rng.permutation(diag))))
    runs = np.split(np.sort(diag), np.cumsum(sizes)[:-1])
    assert d.eigenvalues == tuple(float(np.mean(run)) for run in runs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
def test_decompose_rejects_non_finite_entries(bad):
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    h[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        decompose(Operator(HilbertSpace((3,)), h))


def test_eigenoperators_rejects_non_finite_entries():
    d = decompose(qubit_h())
    with pytest.raises(ValueError, match="non-finite"):
        eigenoperators(Operator(HilbertSpace((2,)), np.array([[0.0, np.nan], [np.nan, 0.0]])), d)


# --------------------------------------------- random JC models (property)

RATE = st.one_of(st.just(0.0), st.floats(1e-3, 0.05))
PHASE = st.floats(-np.pi, np.pi)


@st.composite
def jc_models(draw):
    g11, g22 = draw(RATE), draw(RATE)
    cross = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) * np.sqrt(g11 * g22)
    return JCParams(
        omega0=draw(st.floats(0.5, 2.0)),
        eps=draw(st.floats(0.01, 0.5)) * np.exp(1j * draw(PHASE)),
        g11=g11,
        g22=g22,
        g12=cross * np.exp(1j * draw(PHASE)),
        k_mirror=draw(RATE),
        n_exc=draw(st.integers(1, 3)),
    ), draw(st.sampled_from(["atom", "photon", "mix"]))


@settings(max_examples=40, deadline=None)
@given(jc_models())
def test_random_jc_models_agree_with_the_oracles(model):
    # no engine disagreement: the support search is the per-term and the
    # dense search, and the bare split is the pairwise projector oracle
    p, initial = model
    me = build_jc(p)
    structure = linear_system(me)[1]
    y0 = jc_initial(p, initial).matrix
    got = invariant_support(y0, structure)
    for want in (
        reference_invariant_support(y0, [(0, x, y) for x, y in structure]),
        dense_invariant_support(y0, structure),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    couplings, h_bare, _ = _jc_couplings(p)
    d = decompose(h_bare)
    for a in couplings:
        parts, want = eigenoperators(a, d), pairwise_eigenoperators(a, d)
        assert [e.frequency for e in parts] == [w for w, _ in want]
        for e, (_, m) in zip(parts, want):
            np.testing.assert_array_equal(bits(e.op.matrix), bits(m))
