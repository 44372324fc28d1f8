"""Depth-based normalization and outlier screening for sample matrices."""

from .core import (
    ClassPartition,
    DataError,
    DegenerateScaleError,
    DimensionError,
    DomainError,
    EmptyResultError,
    ExpressionMatrix,
    ParseError,
    PartitionError,
    ReferenceCurve,
    column_sort,
    component_wise_median,
    filter_zero_rows,
    linear_prenormalize,
    load_class_labels,
    load_matrix,
    log1_transform,
    save_matrix,
)
from .depth import (
    Border,
    BorderSequence,
    DistanceMatrix,
    deepest_curve,
    extract_borders,
    pairwise_distances,
    peel_borders,
)
from .normalize import (
    PipelineResult,
    normalize_pipeline,
    quantile_normalize_full,
    quantile_normalize_subset,
)
from .outlier import (
    OutlierReport,
    ScopeScreen,
    TukeyCalibration,
    calibrate_g,
    detect_outliers,
    robust_covariance,
    robust_iqr,
    screen_outliers,
)
from .pipeline import (
    MedianPolishFit,
    ProbeMatrix,
    TestResult,
    biweight_location,
    median_polish,
    power_false_discovery,
    summarize_genes,
    two_sample_ttest,
)
from .simulate import (
    ALL_METHODS,
    METHOD_FDN_BW,
    METHOD_FDN_MP,
    METHOD_RMA,
    SimulationConfig,
    StudyReport,
    generate_dataset,
    run_grid,
    run_study,
)

__version__ = "0.1.0"
