"""Super edge-magic labelings of join-product graphs.

A library and CLI that builds the supported graph families, verifies the
super edge-magic property via the consecutive-edge-sums characterization,
carries verified labeling constructions with their filler-count bounds, and
computes exact deficiencies of small graphs by exhaustive pruned search.
"""

from .graphs import (
    FamilyDescriptor,
    Graph,
    cycle,
    empty_graph,
    join,
    make_family,
    path,
    star,
    wheel,
    wheel_minus_spoke,
)
from .labeling import (
    Labeling,
    Rejection,
    SemCertificate,
    edge_sums,
    total_edge_labels,
    verify_sem,
    weighted_sum_required,
)
from .constructions import (
    ConstructionResult,
    construct_cycle_join,
    construct_general_join,
    construct_path_join,
    construct_star_join,
    construct_wheel_minus_spoke,
    erratum_demos,
)
from .bounds import (
    DeficiencyBounds,
    check_bound_identities,
    counting_lower_bound,
    family_bounds,
)
from .solver import (
    SearchLimitError,
    SearchOutcome,
    SearchResult,
    deficiency,
    find_sem,
)

__version__ = "0.1.0"

__all__ = [
    "FamilyDescriptor",
    "Graph",
    "cycle",
    "empty_graph",
    "join",
    "make_family",
    "path",
    "star",
    "wheel",
    "wheel_minus_spoke",
    "Labeling",
    "Rejection",
    "SemCertificate",
    "edge_sums",
    "total_edge_labels",
    "verify_sem",
    "weighted_sum_required",
    "ConstructionResult",
    "construct_cycle_join",
    "construct_general_join",
    "construct_path_join",
    "construct_star_join",
    "construct_wheel_minus_spoke",
    "erratum_demos",
    "DeficiencyBounds",
    "check_bound_identities",
    "counting_lower_bound",
    "family_bounds",
    "SearchLimitError",
    "SearchOutcome",
    "SearchResult",
    "deficiency",
    "find_sem",
    "__version__",
]
