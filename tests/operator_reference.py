"""Operator-algebra oracles: Kronecker products, the two-level and
truncated-mode operators as embedded single-factor matrices, the partial
trace, and the free-energy conservation check of rotating-wave pairings.

The library sets the JC operators on their nonzeros (``cobath.jc``); the
tests build them here the textbook way and compare.
"""

from math import prod

import numpy as np

from cobath.core import DensityMatrix, HilbertSpace, Operator, embed


def tensor_product(a: Operator, b: Operator) -> Operator:
    """Kronecker composition; factor order is a's factors then b's."""
    space = HilbertSpace(a.space.factor_dims + b.space.factor_dims)
    label = f"{a.label}(x){b.label}" if a.label or b.label else ""
    return Operator(space, np.kron(a.matrix, b.matrix), label=label)


def identity(space: HilbertSpace) -> Operator:
    return Operator(space, np.eye(space.total_dim), label="I")


def make_atom_ops(space: HilbertSpace, factor: int = 0) -> dict[str, Operator]:
    """Two-level operators on the given factor, embedded in the full space.

    Basis convention: index 0 is the excited state |+>, index 1 the ground
    state |->, so S_z = diag(+1, -1) and S_plus = |+><-|.
    """
    if space.factor_dims[factor] != 2:
        raise ValueError(f"factor {factor} has dim {space.factor_dims[factor]}, need a 2-level factor")
    s_z = np.diag([1.0, -1.0]).astype(complex)
    s_plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    s_minus = s_plus.conj().T
    return {
        "S_z": embed(s_z, space, factor, label="S_z"),
        "S_plus": embed(s_plus, space, factor, label="S_plus"),
        "S_minus": embed(s_minus, space, factor, label="S_minus"),
    }


def make_cavity_ops(space: HilbertSpace, factor: int = 1) -> dict[str, Operator]:
    """Truncated-mode ladder operators on the given factor (dim = n_max + 1).

    a|n> = sqrt(n)|n-1> with hard truncation: a_dag|n_max> = 0. Below the
    truncation level the canonical commutator [a, a_dag] = 1 holds exactly.
    """
    dim = space.factor_dims[factor]
    if dim < 2:
        raise ValueError(f"cavity factor needs n_max >= 1, got dim {dim}")
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    a_dag = a.conj().T
    return {
        "a": embed(a, space, factor, label="a"),
        "a_dag": embed(a_dag, space, factor, label="a_dag"),
        "n_op": embed(a_dag @ a, space, factor, label="n"),
    }


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all factors not listed in ``keep`` (trace- and Hermiticity-preserving)."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    dims = rho.space.factor_dims
    if not keep or any(not 0 <= k < len(dims) for k in keep):
        raise ValueError(f"keep must be a non-empty subset of factor indices 0..{len(dims) - 1}")
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # contract each traced factor with its bra-side partner
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        # after each trace the tensor loses one ket and one bra axis
        offset = sum(1 for j in traced[:count] if j < i)
        ket_ax = i - offset
        bra_ax = ket_ax + (n - count)
        t = np.trace(t, axis1=ket_ax, axis2=bra_ax)
    d_keep = prod(dims[k] for k in keep)
    m = t.reshape(d_keep, d_keep)
    sub = HilbertSpace(tuple(dims[k] for k in keep))
    return DensityMatrix(sub, m, tolerance=rho.tolerance, trace_target=rho.trace_target)


def verify_rwa_conservation(H_S: Operator, H_B: Operator, pairs) -> float:
    """Residual norm of the free-energy conservation check.

    Builds the interaction H_I = sum_k A_k (x) B_k from the given
    system/bath operator pairs and returns ||[H_S (x) I + I (x) H_B, H_I]||
    (Frobenius).  The residual vanishes when every pair matches a
    lowering component A(w) with a raising bath component B(-w) at the
    same frequency, and reports the mismatch scale otherwise.
    """
    if not pairs:
        raise ValueError("need at least one (system, bath) operator pair")
    for a, b in pairs:
        if a.space != H_S.space or b.space != H_B.space:
            raise ValueError("pair operators do not match the system/bath spaces")
    H_free = tensor_product(H_S, identity(H_B.space)) + tensor_product(identity(H_S.space), H_B)
    H_I = tensor_product(pairs[0][0], pairs[0][1])
    for a, b in pairs[1:]:
        H_I = H_I + tensor_product(a, b)
    comm = H_free @ H_I - H_I @ H_free
    return float(np.linalg.norm(comm.matrix))
