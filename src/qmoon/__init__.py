"""Exact q-series arithmetic for modular forms, infinite products, and moonshine checks."""

from .series import (
    FULL,
    HALF,
    BiSeries,
    ExponentTable,
    NomeMismatch,
    QSeries,
    divisors,
    exp_series,
    exponents_from_series,
    gbinom,
    log_series,
    moebius,
    product_from_exponents,
    sigma,
)

__version__ = "0.1.0"

__all__ = [
    "FULL",
    "HALF",
    "BiSeries",
    "ExponentTable",
    "NomeMismatch",
    "QSeries",
    "divisors",
    "exp_series",
    "exponents_from_series",
    "gbinom",
    "log_series",
    "moebius",
    "product_from_exponents",
    "sigma",
    "__version__",
]
