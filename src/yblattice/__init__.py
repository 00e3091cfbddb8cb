"""Exact-arithmetic maps and lattice systems with a verification harness.

`import yblattice` loads only the lattice core: `errors`, `exactnum`,
`quadgraph` and `chains`, which is all a chain run needs.  The
verification harness (`ybmaps`, `lax`, `reduction` and `verify`) loads
on the first use of any of those modules or of any name they export
here, and then as one unit: that first use imports all four and binds
the modules and every name in `_HARNESS` in the same call.  So a
caller that keeps this package object across a purge of `sys.modules`
still sees one generation of harness modules.
"""

from importlib import import_module as _import_module

from .chains import (
    PathState,
    check_flip_laws,
    flip,
    transfer_step,
)
from .exactnum import GammaPair, Rational, gamma_pair_from_slope, sample_rational
from .quadgraph import (
    FieldPoint,
    QuadData,
    QuadSystem,
    check_consistency_3d,
    evolve_quad,
)

# the harness modules, in import order, and the names each exports here
_HARNESS = {
    "ybmaps": ("MapId", "YBPoint", "apply_inverse", "apply_map"),
    "lax": ("LaxMatrix", "check_zero_curvature", "lax_matrix", "moebius_p1"),
    "reduction": ("SquareSolution", "check_commuting_diagram"),
    "verify": ("Property", "TripleState", "VerificationReport", "sweep"),
}
_HARNESS_NAMES = frozenset(_HARNESS).union(*_HARNESS.values())

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


def __getattr__(name: str):
    if name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module_name, names in _HARNESS.items():
        module = _import_module(f".{module_name}", __name__)
        namespace[module_name] = module
        for attr in names:
            namespace[attr] = getattr(module, attr)
    return namespace[name]


def __dir__() -> list:
    return sorted({*globals(), *_HARNESS_NAMES})
