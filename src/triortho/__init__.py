"""Triorthogonal stabilizer codes: construction, simulation, distillation
analysis, and distillation-stack cost optimization."""

from .gf2 import (
    ENUMERATION_GUARD,
    BitMatrix,
    BitVector,
    format_matrix,
    orthogonal_complement,
    parse_matrix,
    read_matrix,
    write_matrix,
)
from .codes import (
    GaugePair,
    TriorthogonalCode,
    TriorthogonalMatrix,
    build_code,
    builtin_15_1_3,
    check_orthogonality,
    distances,
    search_triorthogonal,
)
from .simulator import (
    LogicalBasisLabel,
    PhaseCheckResult,
    SparseState,
    prepare_logical,
    prepare_plus_all,
    states_equal_up_to_global_phase,
    superpose,
    transversal_ccz_phase_check,
    transversal_multi_cz_phase_check,
)
from .logical import (
    FaultSpec,
    PauliResidual,
    SteaneReport,
    SweepReport,
    fault_tolerance_sweep,
    gauge_parities_of_state,
    logical_hadamard,
    pauli_residual,
    steane_x_correct,
)
from .distill import (
    CoefficientReport,
    DistillOutcome,
    ErrorModel,
    MonteCarloStats,
    enumerate_order2,
    monte_carlo,
    propagate,
    wilson_interval,
)
from .cost import (
    CSV_HEADER,
    DELIVERABLE_KINDS,
    CostQuery,
    CostResult,
    CurveRow,
    InfeasibleTargetError,
    ProtocolSpec,
    StackLevel,
    cost_curve,
    default_menu,
    fifteen_to_one,
    jones_toffoli,
    menu_from_json,
    menu_to_json,
    optimize_stack,
    render_cost_curve_csv,
    triorthogonal_t_level,
    triorthogonal_top_level,
)

__version__ = "0.1.0"
