"""Collective anomaly detection in high-dimensional VAR panels.

The package scans a collection of candidate time intervals with penalised
test statistics: on each interval the baseline prediction is subtracted
and the gain from letting the coefficients deviate is measured, with a
lasso penalty so that sparse coefficient changes are detected even on
short windows. Thresholds come from Monte-Carlo calibration under the
null, and offline (single and multiple anomalies) as well as online
monitors are provided.
"""

from .detection import (
    CalibrationResult,
    DetectionResult,
    OnlineAlarm,
    OnlineDetector,
    calibrate_threshold,
    detect_multiple,
    detect_online,
    detect_single,
    online_windows,
)
from .errors import DesignError, NumericalError, PanelFormatError, ParameterError
from .estimation import (
    FitResult,
    SolverOptions,
    estimate_baseline,
    estimate_noise_covariance,
    lasso_solve,
    ols_solve,
)
from .evaluation import (
    ScenarioOutcome,
    count_distribution,
    empirical_power,
    hausdorff_distance,
)
from .intervals import Interval, IntervalSet, random_intervals, seeded_intervals
from .interval_stats import (
    IntervalStatistic,
    PanelScanner,
    StatConfig,
    default_lambda,
    lasso_statistic,
    ols_statistic,
    scan_intervals,
    whiten,
)
from .panels import difference, load_panel, save_panel
from .pipeline import RunConfig, run_pipeline
from .var_model import (
    AnomalyScenario,
    RegressionView,
    TimeSeriesPanel,
    VarParams,
    build_regression_view,
    generate_dense_stationary,
    generate_sparse_offdiag,
    simulate,
    simulate_episodes,
    simulate_with_anomaly,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyScenario",
    "CalibrationResult",
    "DesignError",
    "DetectionResult",
    "FitResult",
    "Interval",
    "IntervalSet",
    "IntervalStatistic",
    "NumericalError",
    "OnlineAlarm",
    "OnlineDetector",
    "PanelFormatError",
    "PanelScanner",
    "ParameterError",
    "RegressionView",
    "RunConfig",
    "ScenarioOutcome",
    "SolverOptions",
    "StatConfig",
    "TimeSeriesPanel",
    "VarParams",
    "build_regression_view",
    "calibrate_threshold",
    "count_distribution",
    "default_lambda",
    "detect_multiple",
    "detect_online",
    "detect_single",
    "difference",
    "empirical_power",
    "estimate_baseline",
    "estimate_noise_covariance",
    "generate_dense_stationary",
    "generate_sparse_offdiag",
    "hausdorff_distance",
    "lasso_solve",
    "lasso_statistic",
    "load_panel",
    "ols_solve",
    "ols_statistic",
    "online_windows",
    "random_intervals",
    "run_pipeline",
    "save_panel",
    "scan_intervals",
    "seeded_intervals",
    "simulate",
    "simulate_episodes",
    "simulate_with_anomaly",
    "whiten",
]
