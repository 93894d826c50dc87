"""Open-system dynamics with cross-correlated (common-bath) decay channels."""

from .core import (
    DensityMatrix,
    HilbertSpace,
    KetState,
    Operator,
    basis_index,
    basis_ket,
)
from .master_equation import (
    EigenOperator,
    IntegrationError,
    MasterEquation,
    SpectralTensor,
    apply_t0_filter,
    diagonalize_gamma,
    integrate,
    jump_operators,
)
from .trajectories import (
    McwfResult,
    hierarchy_sector,
    mcwf_unravel,
)
from .jc import (
    BlockSolution,
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

__version__ = "0.1.0"
