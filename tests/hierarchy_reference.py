"""The block-stack hierarchy, propagated on its own, and the sector blocks of a state.

Block i of a stack of d x d blocks evolves under the no-jump generator and
is fed by the jumps out of block i + 1 (``shift`` -1); ``shift`` 0 feeds
each block into itself, which is the master equation.  The library reads
the blocks off the master-equation state by sector (``sector_block``
here, once ``cobath.trajectories.hierarchy_sector`` has checked that the
split holds); the tests keep this builder as the reference for that
reading, for the support search on block stacks and for the kron assembly.
Its ``shift`` 0 ``rhs`` is what the fixed-step oracle (``rk4_reference``)
steps.
"""

import numpy as np

from cobath.core import Operator
from cobath.master_equation import FREQ_MATCH_TOL, MasterEquation, jump_superoperator, kron_on


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


def sector_block(states: np.ndarray, number_op: Operator, i: int) -> np.ndarray:
    """Block i, P_i rho P_i, of each state of a (..., d, d) stack, with P_i the
    projector onto the eigenvalue-i space of ``number_op`` (integer spectrum).

    A diagonal count gives P_i as a 0/1 mask of the basis states, which
    keeps the rows and columns of sector i; any other takes the dense
    projector from ``eigh``.
    """
    num = number_op.matrix
    if not np.any(num - np.diag(np.diag(num))):
        mask = np.round(np.diag(num).real) == i
        return np.where(mask[:, None] & mask, states, 0)
    evals, vecs = np.linalg.eigh(num)
    v = vecs[:, np.round(evals) == i]
    p = v @ v.conj().T
    return p @ states @ p


def linear_system(me: MasterEquation, shift: int):
    """The zero-temperature generator on a stack of d x d blocks,

        d rho_i / dt = -i (B rho_i - rho_i B^dag) + J(rho_{i - shift}),

    from ``me.B`` and ``me.terms``: ``shift`` 0 is the master equation (one
    block), -1 the excitation hierarchy.  Returns ``rhs`` on a block stack,
    ``generator(support)`` (the matrix on those flat row-major stack
    entries, with the products of the ``kron`` assembly) and the
    (shift, X, Y) ``structure`` that ``support_reference`` reads.
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
        kron = kron_on(d, entry[:, None], entry[None, :])
        eye = np.eye(d, dtype=complex)
        nojump = -1j * (kron(b, eye) - kron(eye, b.conj()))
        jumps = jump_superoperator(me.terms, kron)
        return np.where(block[:, None] == block, nojump, 0) + np.where(
            block[:, None] == block + shift, jumps, 0
        )

    eye = np.eye(d)
    jumps = [(shift, term.A_b, term.A_a_dag) for term in me.terms]
    return rhs, generator, [(0, b, eye), (0, eye, b_dag), *jumps]


def _block_system(me: MasterEquation):
    """The hierarchy's :func:`linear_system`: feed from block i + 1 into i."""
    return linear_system(me, -1)
