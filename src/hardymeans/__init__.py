"""Means of positive reals: families, products, inequality checks, and
summability (Hardy) constant estimation."""

__version__ = "0.1.0"

from .core import (
    ARITH,
    ARITHMETIC_DEVIATION,
    ArithmeticDeviation,
    Bajraktarevic,
    Deviation,
    DeviationSpec,
    EXP,
    GEOM,
    Gauss,
    Generator,
    Gini,
    HARM,
    IDENTITY,
    LOG,
    MaxOf,
    MeanComputationError,
    MeanExpr,
    MinOf,
    NonConvergenceError,
    PairDeviation,
    Power,
    QuasiArithmetic,
    as_samples,
    evaluate,
    evaluate_batch,
    power_generator,
)
from .families import (
    bajraktarevic_mean,
    deviation_mean,
    gini_mean,
    power_mean,
    quasi_arithmetic_mean,
)
from .gauss import GaussConfig, gauss_product, gauss_step
from .hardy import (
    ClosedForm,
    HardyConfig,
    HardyEstimate,
    HardySeqBound,
    LiminfEstimate,
    PnSequence,
    SearchConfig,
    canonical,
    closed_form_hardy,
    hardy_constant,
    hardy_ratio,
    hardy_sequence_bound,
    liminf_ratio,
    pn_sequence,
    prefix_means,
    published_tolerance,
    simplex_grid_bound,
)
from .kedlaya import (
    KedlayaMatrix,
    KedlayaTable,
    check_kedlaya_inequality,
    kedlaya_coefficient,
    kedlaya_margins,
    kedlaya_matrix,
    kedlaya_table,
    matrix_mixing_margin,
)
from .parser import ParseError, format_mean_expr, parse_mean_expr
from .probes import (
    Counterexample,
    ProbeConfig,
    PropertyReport,
    Verdict,
    probe_properties,
)

__all__ = [name for name in dir() if not name.startswith("_")]
