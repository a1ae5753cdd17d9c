"""The benchmark's fixed inputs and the set-up that readies them.

The instance lists are plain data, so the independent reference search can
share them without importing semdef; semdef is imported only inside the
functions that build its inputs.
"""

from __future__ import annotations

# solve: (name, family, n, m, cap).  Twelve searches of 0.05 to 0.5 s in the
# pure-Python DFS: long enough that the DFS does nearly all the work, short
# enough that a run times each one several times.  Together they split the
# nodes about evenly between exhaustive refutations (C4+2K1 has no witness
# up to its cap; the others refute the filler counts below their answer)
# and witness searches (P4+5K1, P6+4K1, C8+2K1 and P8+2K1 find theirs at
# the counting bound).
SOLVE_INSTANCES = (
    ("C4+2K1", "cycle-join", 4, 2, 6),
    ("C3+4K1", "cycle-join", 3, 4, 4),
    ("C3+5K1", "cycle-join", 3, 5, 5),
    ("K1,3+4K1", "star-join", 3, 4, 4),
    ("P3+5K1", "path-join", 3, 5, 4),
    ("C8+K1", "cycle-join", 8, 1, 2),
    ("C9+K1", "cycle-join", 9, 1, 2),
    ("H9", "wheel-minus-spoke", 9, None, 1),
    ("P4+5K1", "path-join", 4, 5, 4),
    ("P6+4K1", "path-join", 6, 4, 6),
    ("C8+2K1", "cycle-join", 8, 2, 4),
    ("P8+2K1", "path-join", 8, 2, 3),
)

# certify: (family, n, m).  Hundreds of vertices and thousands to tens of
# thousands of edges per graph, covering every construction formula: odd
# and 0 mod 4 wheels, the generic, P_4 and P_6 path joins, star joins and
# odd cycle joins.
CERTIFY_GRID = (
    tuple(("wheel-minus-spoke", n, None) for n in (801, 1600, 2403, 3200, 4001))
    + tuple(("path-join", n, m) for n in (201, 401, 601) for m in (10, 20, 30))
    + (("path-join", 4, 1000), ("path-join", 6, 1000))
    + tuple(("star-join", n, m) for n in (200, 400, 600) for m in (10, 20, 30))
    + tuple(("cycle-join", n, m) for n in (201, 401, 601) for m in (10, 20, 30))
)


def solve_graphs() -> dict:
    """name -> semdef Graph for every solve instance."""
    from semdef.graphs import FamilyDescriptor, make_family

    return {
        name: make_family(FamilyDescriptor(family, n=n, m=m))
        for name, family, n, m, _ in SOLVE_INSTANCES
    }


# family -> semdef constructor name; the wheel constructor takes n alone.
CONSTRUCTORS = {
    "wheel-minus-spoke": "construct_wheel_minus_spoke",
    "path-join": "construct_path_join",
    "star-join": "construct_star_join",
    "cycle-join": "construct_cycle_join",
}


def construct(family: str, n: int, m: int | None):
    """The ConstructionResult semdef builds for one family instance.

    The constructor is looked up at call time, so a traced run sees it."""
    from semdef import constructions

    fn = getattr(constructions, CONSTRUCTORS[family])
    return fn(n) if m is None else fn(n, m)


def prepare(workload: str):
    """Build the workload's inputs and make one small first call into each
    layer it uses, so one-time preparation is paid before timing starts.
    Returns the solve graphs by name; certify has no inputs beyond its grid."""
    if workload == "solve":
        from semdef.graphs import path
        from semdef.solver import deficiency

        deficiency(path(3), cap=0)
        return solve_graphs()
    if workload == "certify":
        import json

        from semdef.bounds import family_bounds
        from semdef.graphs import FamilyDescriptor
        from semdef.labeling import certificate_from_json_dict, verify_sem

        cert = construct("star-join", 2, 2).certificate
        verify_sem(*certificate_from_json_dict(json.loads(json.dumps(cert.to_json_dict())))[:2])
        family_bounds(FamilyDescriptor("star-join", n=2, m=2))
        return None
    raise ValueError(f"no in-process inputs for workload {workload!r}")
