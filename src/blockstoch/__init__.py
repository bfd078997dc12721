"""Block-parallel stochastic optimization with gradient tracking."""

from types import ModuleType as _ModuleType

from .core import (
    BlockSpec,
    Box,
    FeasibleSet,
    IterationInfo,
    L2Ball,
    NumericalFailureError,
    ProblemInstance,
    RunConfig,
    TraceRecord,
    Unconstrained,
    drive,
    explicit_weights,
    minimize_surrogate,
    run,
    stationarity_residual,
)
from .schedules import Schedule
from .problems import (
    QuadraticProblem,
    SvmDataset,
    SvmProblem,
    even_partition,
    make_nonconvex_toy,
    make_quadratic,
    make_separable_dataset,
    svm_accuracy,
    svm_objective,
    svm_true_gradient,
)
from .baselines import (
    AdamParams,
    adam_step,
    averaging_weight,
    check_rho_avg,
    pegasos_step,
    run_adam,
    run_averaged_sca,
    run_pegasos,
)

__all__ = [name for name, value in globals().items()  # the API, not its submodules
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
