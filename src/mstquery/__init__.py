"""MST under explorable uncertainty with untrusted predictions."""

from .graphcore import (
    AlreadyRevealed,
    Interval,
    NoProgress,
    ParseError,
    PreconditionViolated,
    QueryRun,
    Transcript,
    UncertainEdge,
    UncertainGraph,
    UnknownEdge,
    ValidationError,
    load_instance,
)
from .limittrees import (
    LimitTrees,
    LimitValue,
    WrongSide,
    compute_limit_trees,
    ensure_unique_limit_trees,
    is_solved,
    lower_limit_tree,
    upper_limit_tree,
)
from .oracle import (
    CapExceeded,
    FeasibilityVerdict,
    OptResult,
    is_feasible,
    mandatory_edges,
    opt_brute_force,
    prediction_mandatory_edges,
)
from .errormetrics import ErrorReport, hop_distance, hop_indicator
from .strategies import (
    PhaseLedger,
    RunOutcome,
    RunReport,
    StrategyConfig,
    VertexCoverInstance,
    build_vc_instance,
    make_prediction_mandatory_free,
    phase2_error_sensitive,
    phase2_tradeoff,
    randomized_gamma,
    run_baseline,
    run_combined,
)
from .learner import CandidateGrid, RealizationSampler, discretize, erm_train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
