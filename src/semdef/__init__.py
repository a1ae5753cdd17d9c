"""Super edge-magic labelings of join-product graphs.

A library and CLI that builds the supported graph families, verifies the
super edge-magic property via the consecutive-edge-sums characterization,
carries verified labeling constructions with their filler-count bounds, and
computes exact deficiencies of small graphs by exhaustive pruned search.

The public names below are resolved on first access (PEP 562): `import
semdef` imports no submodule, and `semdef.find_sem` imports semdef.solver
and the modules it imports, then binds the name here.  _MODULES is the one
table of which module defines each name; __all__ and dir() are read from it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# defining module -> the public names it gives the package
_MODULES = {
    "graphs": ("FamilyDescriptor", "Graph", "cycle", "empty_graph", "join", "make_family",
               "path", "star", "wheel", "wheel_minus_spoke"),
    "labeling": ("Labeling", "Rejection", "SemCertificate", "edge_sums", "total_edge_labels",
                 "verify_sem", "weighted_sum_required"),
    "constructions": ("ConstructionResult", "construct_cycle_join", "construct_general_join",
                      "construct_path_join", "construct_star_join",
                      "construct_wheel_minus_spoke", "erratum_demos"),
    "bounds": ("DeficiencyBounds", "check_bound_identities", "counting_lower_bound",
               "family_bounds"),
    "solver": ("SearchLimitError", "SearchOutcome", "SearchResult", "deficiency", "find_sem"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
