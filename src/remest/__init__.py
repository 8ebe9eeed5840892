"""Remote-estimation trade-off toolkit.

Computes the optimal cost of costly communication and the
distortion-transmission function for scalar autoregressive sources under
threshold transmission policies, with exact solvers for the integer-state
model, quadrature solvers for the continuous model, a Monte-Carlo simulator,
and a dynamic-programming cross-check.
"""

from .errors import (
    BracketError,
    CapacityError,
    ConvergenceError,
    DivergenceError,
    NumericsError,
    RemestError,
    SingularSystemError,
    UsageError,
)
from .model import (
    CurvePoint,
    DiscountFactor,
    DistortionFn,
    IntegerPmf,
    ModelSpecA,
    ModelSpecB,
    PerfPoint,
    RandomizedThresholdPolicy,
    SmoothPdf,
    TradeoffCurve,
)
from .simulate import PolicySpec, SimConfig, SimResult, simulate, simulate_policies

__all__ = [
    "BracketError",
    "CapacityError",
    "ConvergenceError",
    "CurvePoint",
    "DiscountFactor",
    "DistortionFn",
    "DivergenceError",
    "IntegerPmf",
    "ModelSpecA",
    "ModelSpecB",
    "NumericsError",
    "PerfPoint",
    "PolicySpec",
    "RandomizedThresholdPolicy",
    "RemestError",
    "SimConfig",
    "SimResult",
    "SingularSystemError",
    "SmoothPdf",
    "TradeoffCurve",
    "UsageError",
    "simulate",
    "simulate_policies",
]

__version__ = "0.1.0"
