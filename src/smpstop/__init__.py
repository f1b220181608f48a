"""Finite-horizon optimal stopping of semi-Markov processes.

Models a finite-state jump process with per-edge sojourn laws, running and
terminal costs, and a planning horizon. Computes the minimal expected cost
over stopping rules by value iteration, extracts optimal and eps-optimal
stopping regions with an explicit iteration budget, and validates values
and rules with a seeded Monte-Carlo trajectory simulator.
"""

from .distributions import Exponential, PointMass, SojournDist, Uniform, Weibull
from .grid import KernelGrid, TimeGrid, convolve_values, discretize_kernel
from .model import (
    CostModel,
    ModelFormatError,
    RegularityCheck,
    SemiMarkovKernel,
    SMPModel,
    StateSpace,
    ValidationReport,
    check_regularity,
    contraction_factor,
    kernel_mass,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate_model,
)
from .smdp import (
    SMDPModel,
    SolveReport,
    StoppingRegion,
    apply_T,
    build_smdp,
    evaluate_policy,
    solve_smdp,
)
from .solver import (
    ContractionError,
    EpsBudget,
    EpsRegionResult,
    ValueGrid,
    apply_G,
    cross_check,
    eps_region,
    exactness_gap,
    iteration_budget,
    operator_discrepancy,
    solve_value,
    stopping_region,
    write_region_csv,
    write_value_csv,
)
from .simulate import (
    AlwaysStop,
    JumpLimitError,
    MCReport,
    NeverStop,
    RegionRule,
    StopOutcome,
    StoppingRule,
    Trajectory,
    estimate_value,
    execute_rule,
    path_stream,
    sample_trajectory,
    trajectory_cost,
)

__version__ = "0.1.0"
