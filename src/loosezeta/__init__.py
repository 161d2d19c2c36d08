"""Exact counting polynomials, zeta functions and point-count verification
for loose graphs (graphs whose edges may keep one or zero endpoints).

The package is lazy: a public name imports its home module on first
access, so ``import loosezeta`` loads no engine module by itself.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "families": "generate serialize",
    "grothendieck": "class_polynomial",
    "ihara": "IharaDomainError edge_matrix_inverse ihara_inverse",
    "loosegraph": "GenerateError LooseGraph LooseGraphError ParseError is_connected is_loose_tree parse",
    "pointcount": "BudgetError VerifyReport count_points verify",
    "polymatrix": "PolyMatrix",
    "polyring": "ExactDivisionError L Poly format_poly",
    "surgery": "SurgeryStep SurgeryTrace resolution_difference surgery_trace tree_class",
    "zeta": "FactoredZeta TreeProfile f1_zeta format_zeta tree_profile tree_zeta_closed_form",
}

__all__ = sorted(name for names in _HOMES.values() for name in names.split())


def _lazy(namespace: dict, homes: dict[str, str]):
    """A PEP 562 ``__getattr__`` for the module whose globals are ``namespace``:
    a name listed in ``homes`` (home module -> names) is imported from its
    home module on first access and cached in ``namespace``."""
    home = {name: module for module, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{home[name]}"), name)
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _HOMES)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
