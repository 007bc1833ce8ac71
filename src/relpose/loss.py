"""The confidence-weighted supervision objective that calibrates the
synthetic oracle.

The per-pair loss c * residual - alpha * log(c) has the closed-form
minimizer c* = alpha / residual, which is the fixed point the oracle's
confidences are set to.
"""

import math


def conf_loss(residual, c, alpha) -> float:
    """Confidence-weighted residual term: c * residual - alpha * log c."""
    if c <= 0 or alpha <= 0:
        raise ValueError("confidence and alpha must be positive")
    return c * residual - alpha * math.log(c)
