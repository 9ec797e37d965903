"""Small shared utilities: iterated-logarithm math helpers and RNG streams."""

from repro.utils.mathx import log_star, tetration
from repro.utils.rng import RngStream

__all__ = [
    "log_star",
    "tetration",
    "RngStream",
]
