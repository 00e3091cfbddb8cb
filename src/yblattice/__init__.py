"""Exact-arithmetic maps and lattice systems with a verification harness."""

from .chains import (
    PathState,
    check_flip_laws,
    flip,
    transfer_step,
)
from .exactnum import GammaPair, Rational, gamma_pair_from_slope, sample_rational
from .lax import LaxMatrix, check_zero_curvature, lax_matrix, moebius_p1
from .quadgraph import (
    FieldPoint,
    QuadData,
    QuadSystem,
    check_consistency_3d,
    evolve_quad,
)
from .reduction import SquareSolution, check_commuting_diagram
from .verify import Property, TripleState, VerificationReport, sweep
from .ybmaps import MapId, YBPoint, apply_inverse, apply_map

__all__ = [
    "GammaPair",
    "Rational",
    "gamma_pair_from_slope",
    "sample_rational",
    "FieldPoint",
    "QuadData",
    "QuadSystem",
    "check_consistency_3d",
    "evolve_quad",
    "MapId",
    "YBPoint",
    "apply_inverse",
    "apply_map",
    "PathState",
    "flip",
    "check_flip_laws",
    "transfer_step",
    "LaxMatrix",
    "lax_matrix",
    "check_zero_curvature",
    "moebius_p1",
    "SquareSolution",
    "check_commuting_diagram",
    "Property",
    "TripleState",
    "VerificationReport",
    "sweep",
]

__version__ = "0.1.0"
