"""Generalized Kumaraswamy distributions: exact densities, moments and
related expectations by one quadrature over the underlying Beta
variable, maximum-likelihood estimation, and a small command-line
interface.
"""

from .core import (
    Params,
    SubModel,
    SUBMODELS,
    pdf,
    log_pdf,
    cdf,
    quantile,
    sample,
)
from .estim import (
    Dataset,
    FitResult,
    LrTestResult,
    fit,
    fit_family,
    log_likelihood,
    lr_test,
    score,
    observed_info,
    std_errors,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "SubModel",
    "SUBMODELS",
    "pdf",
    "log_pdf",
    "cdf",
    "quantile",
    "sample",
    "Dataset",
    "FitResult",
    "LrTestResult",
    "fit",
    "fit_family",
    "log_likelihood",
    "lr_test",
    "score",
    "observed_info",
    "std_errors",
    "__version__",
]
