"""Budget-constrained multi-agent contract games.

Equilibrium computation, contract classification and synthesis, principal
optimization over tiered-weights contracts, and payment-spread comparisons.
"""

from .core import (
    CLASSIFY_TOL,
    MAX_AGENTS,
    Contract,
    ContractClass,
    CostModel,
    EquilibriumResult,
    LuceSpec,
    PowerCost,
    Profile,
    TabulatedMonotone,
    as_profile,
    bonus_pool,
    classify,
    equal_split,
    expand_luce,
    mask_agents,
    outcome_prob,
    outcome_probabilities,
    piece_rate,
    subset_mask,
    zero_contract,
)
from .equilibrium import (
    SolverOptions,
    best_response,
    equilibrium_residual,
    fgn_normalize,
    find_equilibria,
    marginal_gain,
)
from .errors import (
    BudgetExceeded,
    ContractGameError,
    DegenerateProfile,
    GridTooCoarse,
    InconsistentTightSets,
    NoConvergence,
    NotAdmissible,
    NotAnEquilibrium,
    NotLuceImplementable,
    ObjectiveNotIncreasing,
    ParameterOutOfRange,
)
from .luce import (
    SynthesisResult,
    derive_partition,
    required_budget,
    synthesize_luce,
)
from .maximal import (
    ConditionReport,
    DominanceCheck,
    FrontierPoint,
    FrontierResult,
    brute_force_frontier,
    dominated_by,
    implementability_necessary,
    luce_condition,
    maximal_candidate,
    z_value,
)
from .optimize import (
    Objective,
    Optimum,
    lambda_thresholds,
    optimize_principal,
    two_agent_equilibrium,
    two_agent_equilibrium_derivatives,
    two_agent_optimal_lambda,
    two_agent_sge,
)
from .payments import (
    MpsVerdict,
    PaymentDistribution,
    implementing_fgn_samples,
    mps_compare,
    payment_distribution,
)

__version__ = "0.1.0"
