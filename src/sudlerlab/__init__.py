"""Numerical laboratory for Sudler products, figure-eight Jones values,
and the arithmetic of their continued-fraction renormalization."""

from sudlerlab.cfrac import (
    CFExpansion,
    ConvergentTable,
    OstrowskiRep,
    cf_expand,
    convergents,
    interval_Ik,
    ostrowski_encode,
    parse_alpha,
    rationals_in_interval,
)
from sudlerlab.dist import (
    StableLaw,
    estimate_D,
    ks_compare,
    stable_cdf,
    sweep,
)
from sudlerlab.errors import (
    EnumerationCapError,
    PoleError,
    PrecondError,
    QuadratureError,
    ZeroFactorError,
)
from sudlerlab.jones import (
    HValue,
    h_eval,
    jones_J,
    telescoping_logJ,
    vol_41,
)
from sudlerlab.trig import (
    cotangent_V,
    cotangent_sum,
    epsilon_vector,
    explicit_formula_eval,
    kubert_rhs,
    log_f,
    product_form_eval,
    product_form_logs,
    ql_diff_check,
    shifted_sudler,
    sudler_prefix_logmags,
)

__version__ = "0.1.0"

__all__ = [
    "CFExpansion",
    "ConvergentTable",
    "OstrowskiRep",
    "cf_expand",
    "convergents",
    "interval_Ik",
    "ostrowski_encode",
    "parse_alpha",
    "rationals_in_interval",
    "StableLaw",
    "estimate_D",
    "ks_compare",
    "stable_cdf",
    "sweep",
    "EnumerationCapError",
    "PoleError",
    "PrecondError",
    "QuadratureError",
    "ZeroFactorError",
    "HValue",
    "h_eval",
    "jones_J",
    "telescoping_logJ",
    "vol_41",
    "cotangent_V",
    "cotangent_sum",
    "epsilon_vector",
    "explicit_formula_eval",
    "kubert_rhs",
    "log_f",
    "product_form_eval",
    "product_form_logs",
    "ql_diff_check",
    "shifted_sudler",
    "sudler_prefix_logmags",
]
