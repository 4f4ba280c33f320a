"""Trust-region solver for stochastic minimax problems whose sampling
distribution depends on the decision variable."""

from .core import (
    Box,
    ConfigurationError,
    ContractViolationError,
    DistributionOracle,
    IngestionError,
    InnerConvergenceError,
    OracleDiagnostics,
    PoisednessError,
    ProblemSpec,
    Simplex,
    SingularFitError,
    make_rng,
    uniform_ball_sample,
)
from .inner import InnerSolveReport, maximize_over_scenarios
from .llr import LLRModel, PoisedSampleSet, fit, generate_poised_set
from .tr import (
    IterationRecord,
    SampleSchedule,
    TRConfig,
    TRState,
    solve,
)

__all__ = [
    "Box",
    "ConfigurationError",
    "ContractViolationError",
    "DistributionOracle",
    "IngestionError",
    "InnerConvergenceError",
    "InnerSolveReport",
    "IterationRecord",
    "LLRModel",
    "OracleDiagnostics",
    "PoisedSampleSet",
    "PoisednessError",
    "ProblemSpec",
    "SampleSchedule",
    "Simplex",
    "SingularFitError",
    "TRConfig",
    "TRState",
    "fit",
    "generate_poised_set",
    "make_rng",
    "maximize_over_scenarios",
    "solve",
    "uniform_ball_sample",
]

__version__ = "0.1.0"
