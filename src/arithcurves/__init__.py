"""Exact computational algebra for split root systems, Chevalley bases, the
characteristic morphism, metrized lattices over rings of integers, and
spectral/cameral curve analysis."""

import importlib

# The public names are looked up in their modules on access (PEP 562), so
# importing the package, or one module of it, loads no other layer.
_EXPORTS = {
    "cartan": ("CartanType",),
    "rootsys": ("RootSystem", "build_root_system", "weyl_group"),
    "chevalley": ("IntegralLieAlgebra", "build_chevalley_basis", "verify_chevalley"),
    "linalg": ("chi_gl",),
    "charmorph": ("chi_torus", "fundamental_invariants"),
    "arakelov": ("NumberField", "FractionalIdeal", "MetrizedLineBundle", "arithmetic_degree"),
    "curve": ("HiggsField", "spectral_curve", "cameral_curve"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE)


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
