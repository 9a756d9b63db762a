"""Exact q-series arithmetic for modular forms, infinite products, and moonshine checks."""

from .series import (
    FULL,
    HALF,
    BiSeries,
    ExponentTable,
    QSeries,
    exponents_from_series,
    product_from_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "FULL",
    "HALF",
    "BiSeries",
    "ExponentTable",
    "QSeries",
    "exponents_from_series",
    "product_from_exponents",
    "__version__",
]
