"""The learnable softmax temperature of the patch-level cross-modal scores.

Each patch is scored by cosine similarity against the class prototypes, and
the scores divided by tau go through a softmax; that forward pass and its
gradient live in training.py.
"""

import math
from dataclasses import dataclass

__all__ = ["TemperatureParam"]


@dataclass
class TemperatureParam:
    """Softmax temperature stored as log_tau so tau = exp(log_tau) > 0 by
    construction; the gradient flows through the exponential."""

    log_tau: float

    @property
    def tau(self) -> float:
        return math.exp(self.log_tau)
