"""Open-system dynamics with cross-correlated (common-bath) decay channels."""

from .core import (
    DensityMatrix,
    HilbertSpace,
    KetState,
    Operator,
    basis_index,
    basis_ket,
    make_atom_ops,
    make_cavity_ops,
    partial_trace,
    tensor_product,
)
from .eigenops import (
    EigenOperator,
    SpectralDecomposition,
    decompose,
    eigenoperators,
    verify_rwa_conservation,
)
from .master_equation import (
    DetailedBalanceReport,
    IntegrationError,
    MasterEquation,
    SpectralTensor,
    apply_t0_filter,
    build_dissipator,
    build_lamb_shift,
    diagonalize_gamma,
    integrate,
    jump_feed,
    jump_operators,
    validate_detailed_balance,
)
from .trajectories import (
    EffectiveGenerator,
    McwfResult,
    TrajectoryHierarchy,
    effective_generator,
    mcwf_unravel,
    propagate_deterministic,
    reconstruct,
    solve_hierarchy,
)
from .jc import (
    BlockSolution,
    JCParams,
    asymptotic_state,
    block_concurrence_exact,
    block_concurrence_variant,
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
    no_jump_postselect,
    sector_entries,
    solve_jc_hierarchy,
    two_qubit_projection,
    wootters_concurrence,
    x_state_concurrence,
)

__version__ = "0.1.0"
