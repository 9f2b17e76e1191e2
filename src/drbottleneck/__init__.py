"""Data-driven distributionally robust bottleneck combinatorial optimization.

Exact solvers and statistical calibration for min-max (bottleneck) and
top-k-sum combinatorial problems whose cost vectors are known only through
empirical scenarios, with Wasserstein and total-variation ambiguity sets,
built-in combinatorial oracles (minimum cuts, matchings, blocker
enumeration), reproducible scenario generators, and brute-force
verification helpers.
"""

from .bottleneck import (
    BottleneckResult,
    bottleneck_value,
    dual_bottleneck_value,
    topk_blocker_enumerate,
    topk_sum_value,
)
from .calibrate import (
    CiReport,
    CoverageReport,
    CrossValReport,
    asymptotic_ci,
    calibrate_radius,
    calibrate_radius_decision,
    calibrate_radius_topk,
    calibrate_radius_topk_decision,
    coverage_experiment,
    cross_validate,
    estimate_sigma,
    normal_approx_radius,
    smallest_radius_in_band,
    theoretical_ci,
)
from .decide import (
    DecisionReport,
    IndifferenceSet,
    decision_worst_case_distribution,
    indifference_set,
    matching_permutation,
    robust_decision,
    saa_decision,
    topk_decision,
    topk_variance_robust_decision,
    tv_robust_decision,
    variance_robust_decision,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EnumerationLimitError,
    InvalidInstanceError,
    InvariantViolationError,
    ScenarioParseError,
    SolverError,
)
from .generate import (
    MultihopParams,
    TruncatedGaussianParams,
    generate_matching_gaussian,
    generate_multihop,
    shannon_capacity,
)
from .quantify import (
    EmpiricalRecord,
    GapReport,
    RobustQuote,
    ScenarioRobustness,
    TopkQuote,
    TopkRecord,
    WassersteinBall,
    check_gap_bounds,
    element_level,
    empirical_record,
    l1_robust_level,
    quantify_robust,
    quantify_robust_finite_order,
    quantify_topk,
    robust_scenario_value,
    saa_value,
    structure_constant,
    topk_record,
    worst_case_distribution,
)
from .scenarios import ScenarioSet, load_scenarios, require_matching_width, save_scenarios
from .search import enumerate_members, iter_members, minimize_members
from .systems import (
    AssignmentSystem,
    BlockerElement,
    Clutter,
    CombinatorialSystem,
    ExplicitSystem,
    GroundSet,
    PathSystem,
    TreeSystem,
    antichain_reduce,
    blocker_enumerate,
    feasible_at_threshold,
    max_blocker_size,
    min_member_size,
    min_weight_blocker,
    system_from_json,
    system_to_json,
)

__version__ = "0.1.0"
