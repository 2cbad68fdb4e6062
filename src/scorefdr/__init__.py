"""Online multiple testing with overshoot refunds.

The package provides eleven sequential FDR-controlling procedures behind one
estimator-style interface, calibrators for turning raw statistics into valid
e-values or p-values, synthetic benchmark generators with a Monte-Carlo
runner, a brute-force reference oracle, and a CSV-driven command line.
"""

from .core import MAX_EVALUE, Observation
from .schedules import (
    DEFAULT_GAMMA,
    DEFAULT_LAMBDA,
    DEFAULT_OMEGA,
    Schedule,
    weight_at,
)
from .procedures import (
    PROCEDURE_IDS,
    PROCEDURES,
    ELond,
    ELord,
    ESaffron,
    OnlineProcedure,
    PLond,
    PLord,
    PSaffron,
    ScoreLond,
    ScoreLord,
    ScorePlusLord,
    ScorePlusSaffron,
    ScoreSaffron,
    StepResult,
    Trajectory,
    make_procedure,
)
from .calibration import (
    CalibrationSet,
    LikelihoodRatioSpec,
    ar1_conditional_pvalue,
    ar1_marginal_pvalue,
    conformal_evalue,
    lr_evalue,
    vovk_p_to_e,
)
from .simulation import (
    DgpConfig,
    GeneratedStream,
    MetricsReport,
    default_checkpoints,
    evaluate,
    generate,
    replicate,
)
from .reference import (
    naive_trajectory,
    trace_divergence,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_EVALUE",
    "Observation",
    "Schedule",
    "weight_at",
    "DEFAULT_GAMMA",
    "DEFAULT_OMEGA",
    "DEFAULT_LAMBDA",
    "OnlineProcedure",
    "ELond",
    "ScoreLond",
    "PLond",
    "ELord",
    "ScoreLord",
    "ScorePlusLord",
    "ESaffron",
    "ScoreSaffron",
    "ScorePlusSaffron",
    "PLord",
    "PSaffron",
    "PROCEDURES",
    "PROCEDURE_IDS",
    "StepResult",
    "Trajectory",
    "make_procedure",
    "CalibrationSet",
    "LikelihoodRatioSpec",
    "vovk_p_to_e",
    "conformal_evalue",
    "lr_evalue",
    "ar1_conditional_pvalue",
    "ar1_marginal_pvalue",
    "DgpConfig",
    "GeneratedStream",
    "MetricsReport",
    "generate",
    "evaluate",
    "replicate",
    "default_checkpoints",
    "naive_trajectory",
    "trace_divergence",
]
