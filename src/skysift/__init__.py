"""skysift: classify feedback-controlled aerial objects from velocity data.

A sampled velocity-deviation series from a feedback-controlled flyer is a
stationary Gaussian AR(1) sequence whose variance and correlation encode the
object's mass and control gain.  This package implements the exact MAP
detector for a two-class problem (e.g. bird vs. drone), its streaming form,
exact total and conditional detection-error probabilities, and a seeded
experiment harness with CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericalError
from .model import (
    ClassStatistics,
    IntruderParams,
    NoiseSpec,
    SamplingSpec,
    Scenario,
    class_statistics,
    continuous_autocorrelation,
)
from .kms import kms_quadratic_form
from .simulator import (
    MeasurementSeries,
    TrialBatch,
    read_batch_csv,
    simulate_batch,
    simulate_trajectory,
    write_batch_csv,
)
from .detector import (
    DetectionReport,
    DetectorSpec,
    SufficientStatistics,
    build_detector,
    detect_full,
    detect_simplified,
    detector_from_scenario,
    fit_class_statistics,
    stream_update,
    threshold,
)
from .error_analysis import (
    AccuracyBudget,
    ErrorReport,
    QuadFormSpectrum,
    accuracy_budget,
    cdf_quadratic_form_raw,
    error_surface,
    q_sigma_eigenvalues,
    total_error,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    run_experiment,
)

__all__ = [
    "__version__",
    "ConfigError",
    "NumericalError",
    "ClassStatistics",
    "IntruderParams",
    "NoiseSpec",
    "SamplingSpec",
    "Scenario",
    "class_statistics",
    "continuous_autocorrelation",
    "kms_quadratic_form",
    "MeasurementSeries",
    "TrialBatch",
    "read_batch_csv",
    "simulate_batch",
    "simulate_trajectory",
    "write_batch_csv",
    "DetectionReport",
    "DetectorSpec",
    "SufficientStatistics",
    "build_detector",
    "detect_full",
    "detect_simplified",
    "detector_from_scenario",
    "fit_class_statistics",
    "stream_update",
    "threshold",
    "AccuracyBudget",
    "ErrorReport",
    "QuadFormSpectrum",
    "accuracy_budget",
    "cdf_quadratic_form_raw",
    "error_surface",
    "q_sigma_eigenvalues",
    "total_error",
    "EXPERIMENT_NAMES",
    "ExperimentConfig",
    "run_experiment",
]
