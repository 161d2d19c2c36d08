"""Exact counting polynomials, zeta functions and point-count verification
for loose graphs (graphs whose edges may keep one or zero endpoints).

The package is lazy: a public name imports its home module on first
access, so ``import loosezeta`` loads no engine module by itself.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "grothendieck": "SurgeryStep SurgeryTrace class_polynomial resolution_difference "
    "surgery_trace tree_class",
    "ihara": "IharaDomainError edge_matrix_inverse ihara_inverse",
    "loosegraph": "GenerateError LooseGraph LooseGraphError NeighborhoodData "
    "ParseError TreeProfile connected_components generate induced "
    "is_connected is_loose_tree neighborhood parse reduce resolve serialize "
    "spanning_tree tree_profile",
    "pointcount": "BudgetError VerifyReport count_points verify",
    "polyring": "ExactDivisionError L Poly PolyMatrix format_poly",
    "zeta": "FactoredZeta f1_zeta format_zeta tree_zeta_closed_form",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Resolve a public name from its home module and cache it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
