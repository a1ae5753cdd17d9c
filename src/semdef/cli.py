"""Command-line front end.

Subcommands:
  gen        emit a family graph as JSON
  construct  build and verify a family labeling, emit the certificate
  verify     re-check a certificate file (exit 0 iff it verifies)
  bounds     closed-form deficiency bounds for a family (or a whole table)
  solve      exact deficiency of a graph by exhaustive search
  reproduce  run the claim manifest and emit the report

Exit codes: 0 success / certificate accepted / exact deficiency found;
1 rejected certificate or failed claims; 2 usage error; 3 the solver
exhausted every filler count up to the cap without a witness; 4 solve would
need more labels than --max-labels before the cap, with no witness below
them, or the compiled kernel could not finish the search: it could not
allocate the plan, or its tables, or it found no witness within its
_kernel.MAX_LABELS labels and more were asked for.
JSON goes to the --json path ('-' = stdout);
with --json omitted, no JSON is written.  Human-readable summaries go to
stdout, or to stderr when stdout is the JSON target; solver statistics go
to stderr.

Each subcommand imports the semdef modules it runs when it runs, so --help
and a usage error import no other semdef module, gen only graphs, and verify
only graphs and labeling.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_NOT_SEM_UP_TO = 3
EXIT_LIMIT = 4

# The extent of a bounds --table without --n-max / --m-max.
TABLE_N_MAX = 10
TABLE_M_MAX = 6


def _write_json(data: dict, path: str | None) -> None:
    import json

    text = json.dumps(data, indent=2, sort_keys=False) + "\n"
    if path is None:
        return
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _summary_stream(json_path: str | None):
    """stdout for human-readable lines, unless the JSON goes there."""
    return sys.stderr if json_path == "-" else sys.stdout


def _read_json(path: str) -> dict:
    """The decoded JSON file at path.  Nesting too deep for the decoder is a
    ValueError, like malformed JSON, so main reports it as a usage error."""
    import json

    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _family_arg(value: str) -> str:
    from .graphs import FAMILY_KINDS

    if value not in FAMILY_KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown family {value!r}; choose from {tuple(FAMILY_KINDS)}"
        )
    return value


def _check_family_flags(args) -> None:
    """Reject flags the command would ignore: -n/-m with bounds --table, which
    reads --n-max/--m-max; --n-max/--m-max without it; -n on a family that
    takes no n; and -m on a family that takes no m."""
    from .graphs import FAMILY_KINDS

    if getattr(args, "table", None):
        for flag, value in (("-n", args.n), ("-m", args.m)):
            if value is not None:
                raise ValueError(f"{flag} does not apply to bounds --table; use --n-max/--m-max")
    elif args.command == "bounds":
        for flag, value in (("--n-max", args.n_max), ("--m-max", args.m_max)):
            if value is not None:
                raise ValueError(f"{flag} applies only to bounds --table")
    needs_m, least_n = FAMILY_KINDS[args.family][:2]
    if args.n is not None and least_n is None:
        raise ValueError(f"-n does not apply to --family {args.family}, which takes only -m")
    if args.m is not None and not needs_m:
        raise ValueError(f"-m does not apply to --family {args.family}, which takes only -n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    from .graphs import FamilyDescriptor, make_family, wheel_minus_spoke

    _check_family_flags(args)
    if args.mid_spoke:
        if args.family != "wheel-minus-spoke":
            raise ValueError("--mid-spoke applies only to --family wheel-minus-spoke")
        if args.n is None or args.n < 4 or args.n % 2:
            raise ValueError("--mid-spoke needs an even -n >= 4")
        g = wheel_minus_spoke(args.n, missing_spoke=args.n // 2)
    else:
        g = make_family(FamilyDescriptor(args.family, n=args.n, m=args.m))
    _write_json(g.to_json_dict(), args.json)
    print(f"{args.family}: p={g.vertex_count}, q={g.q}", file=_summary_stream(args.json))
    return EXIT_OK


def _construct(args):
    """The ConstructionResult that construct's flags name."""
    from .constructions import CONSTRUCTIONS, construct_general_join
    from .graphs import FAMILY_KINDS
    from .labeling import Rejection, certificate_from_json_dict, verify_sem

    _check_family_flags(args)
    family = args.family
    needs_m, least_n = FAMILY_KINDS[family][:2]
    if least_n is not None and args.n is None:
        raise ValueError(f"construct --family {family} requires -n")
    if needs_m and args.m is None:
        raise ValueError(f"construct --family {family} requires -m")
    if family != "generic-join":
        if args.base is not None:
            raise ValueError("--base applies only to --family generic-join")
        if family not in CONSTRUCTIONS:
            raise ValueError(f"no construction for family {family!r}")
        return CONSTRUCTIONS[family][0](args.n, args.m)
    if args.base is None:
        raise ValueError("generic-join needs --base pointing at a SEM base certificate")
    graph, lab, _claimed = certificate_from_json_dict(_read_json(args.base))
    base = verify_sem(graph, lab)
    if isinstance(base, Rejection):
        raise ValueError(f"base certificate does not verify: {base.reason} ({base.detail})")
    return construct_general_join(base, args.m)


def _cmd_construct(args) -> int:
    result = _construct(args)
    cert = result.certificate
    _write_json(cert.to_json_dict(), args.json)
    out = _summary_stream(args.json)
    print(
        f"{args.family}: p={cert.graph.vertex_count}, q={cert.graph.q}, "
        f"fillers={result.claimed_isolated}, labels={list(cert.labeling.labels)}, "
        f"s={cert.min_edge_sum}, k={cert.magic_constant}",
        file=out,
    )
    if args.show_errata:
        applied = ", ".join(result.errata_applied) if result.errata_applied else "none"
        print(f"corrections applied: {applied}", file=out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .graphs import Graph
    from .labeling import Rejection, certificate_from_json_dict, verify_sem

    graph, lab, claimed = certificate_from_json_dict(_read_json(args.cert))
    if args.graph is not None:
        other = Graph.from_json_dict(_read_json(args.graph))
        if other != graph:
            print("certificate graph differs from --graph", file=sys.stderr)
            return EXIT_REJECTED
    result = verify_sem(graph, lab)
    if isinstance(result, Rejection):
        print(f"REJECTED: {result.reason}: {result.detail}", file=sys.stderr)
        return EXIT_REJECTED
    for key, got in (("s", result.min_edge_sum), ("k", result.magic_constant)):
        if claimed.get(key) is not None and claimed[key] != got:
            print(
                f"REJECTED: claimed {key}={claimed[key]} but the labeling gives {got}",
                file=sys.stderr,
            )
            return EXIT_REJECTED
    print(
        f"OK: sums {result.min_edge_sum}..{result.min_edge_sum + graph.q - 1}, "
        f"fillers={result.isolated}, k={result.magic_constant}"
    )
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .bounds import family_bounds, family_grid
    from .graphs import FamilyDescriptor

    _check_family_flags(args)
    if args.table:
        n_max = TABLE_N_MAX if args.n_max is None else args.n_max
        m_max = TABLE_M_MAX if args.m_max is None else args.m_max
        rows = [
            (d.n, d.m, family_bounds(d))
            for d in family_grid(args.family, n_max, m_max)
        ]
        if args.table == "csv":
            print("family,n,m,lower,upper,lower_source,upper_source")
            for n, m, b in rows:
                up = "" if b.upper is None else b.upper
                upsrc = "" if b.upper_source is None else b.upper_source
                print(f"{args.family},{n},{'' if m is None else m},{b.lower},{up},{b.lower_source},{upsrc}")
        else:
            print("| n | m | lower | upper | lower source | upper source |")
            print("| --- | --- | --- | --- | --- | --- |")
            for n, m, b in rows:
                up = "unknown" if b.upper is None else b.upper
                upsrc = "-" if b.upper_source is None else b.upper_source
                print(f"| {n} | {'-' if m is None else m} | {b.lower} | {up} | {b.lower_source} | {upsrc} |")
        return EXIT_OK
    b = family_bounds(FamilyDescriptor(args.family, n=args.n, m=args.m))
    upper = "unknown (open)" if b.upper is None else f"{b.upper} ({b.upper_source})"
    print(f"{args.family} n={args.n}" + (f" m={args.m}" if args.m is not None else ""))
    print(f"  lower: {b.lower} ({b.lower_source})")
    print(f"  upper: {upper}")
    if b.exact is not None:
        print(f"  exact: {b.exact}")
    return EXIT_OK


def _over_max_labels(labels: int, max_labels: int) -> int:
    print(f"limit: search needs {labels} labels, over --max-labels {max_labels}",
          file=sys.stderr)
    return EXIT_LIMIT


def _cmd_solve(args) -> int:
    from .bounds import counting_lower_bound
    from .graphs import SCHEMA, Graph
    from .solver import SearchLimitError, deficiency

    if args.max_labels < 0:
        raise ValueError(f"--max-labels must be >= 0, got {args.max_labels}")
    g = Graph.from_json_dict(_read_json(args.graph))
    p = g.vertex_count
    # deficiency searches the filler counts t0..cap, with p + t labels each;
    # from `over` on they are more than --max-labels, so solve searches up
    # to over - 1 when the cap lies past it
    t0 = 0 if p == 0 else counting_lower_bound(p, g.q)
    over = args.max_labels - p + 1
    if over <= t0 <= args.cap:
        return _over_max_labels(p + t0, args.max_labels)
    try:
        out = deficiency(g, args.cap if t0 > args.cap else min(args.cap, over - 1))
    except SearchLimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    print(
        f"stats: nodes={out.nodes} seconds={out.seconds:.3f} backend={out.backend}",
        file=sys.stderr,
    )
    human = _summary_stream(args.json)
    payload: dict = {
        "schema": SCHEMA,
        "cap": args.cap,
        "deficiency": out.deficiency,
        "certificate": None,
    }
    if out.is_exact:
        payload["status"] = "exact"
        payload["certificate"] = out.witness.to_json_dict()
        _write_json(payload, args.json)
        print(
            f"deficiency {out.deficiency}; witness labels {list(out.witness.labeling.labels)}, "
            f"k={out.witness.magic_constant}",
            file=human,
        )
        return EXIT_OK
    if out.cap < args.cap:
        return _over_max_labels(p + over, args.max_labels)
    payload["status"] = "not-sem-up-to"
    _write_json(payload, args.json)
    print(f"no SEM labeling with up to {out.cap} fillers (exhaustive)", file=human)
    return EXIT_NOT_SEM_UP_TO


def _cmd_reproduce(args) -> int:
    from . import reproduce as reproduce_mod

    report = reproduce_mod.run(selection=args.select)
    human = _summary_stream(args.json)
    for e in report.entries:
        tag = f" [{', '.join(e.errata)}]" if e.errata else ""
        print(f"{e.status.upper():>11}  {e.claim.id}: {e.details}{tag}", file=human)
    s = report.summary()
    print(
        f"summary: {s['total']} claims, {s['pass']} pass, {s['errata-pass']} errata-pass, "
        f"{s['fail']} fail, {s['open']} open",
        file=human,
    )
    if args.json:
        _write_json(reproduce_mod.report_json_dict(report), args.json)
    if args.md:
        with open(args.md, "w") as fh:
            fh.write(reproduce_mod.report_markdown(report))
    return EXIT_REJECTED if report.failed else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --m would otherwise run
    # as --m-max without a word
    parser = argparse.ArgumentParser(
        prog="semdef",
        description="Super edge-magic labelings: constructions, verification, bounds, exact search.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family graph as JSON", allow_abbrev=False)
    p.add_argument("--family", type=_family_arg, required=True)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("--mid-spoke", action="store_true", help="missing spoke at n/2 (even n)")
    p.add_argument("--json", default=None, help="graph output path ('-' = stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("construct", help="build and verify a family labeling", allow_abbrev=False)
    p.add_argument("--family", type=_family_arg, required=True)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("--base", default=None, help="base certificate JSON (generic-join)")
    p.add_argument("--show-errata", action="store_true")
    p.add_argument("--json", default=None, help="certificate output path ('-' = stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-check a certificate file", allow_abbrev=False)
    p.add_argument("--cert", required=True)
    p.add_argument("--graph", default=None, help="cross-check against this graph JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="closed-form deficiency bounds", allow_abbrev=False)
    p.add_argument("--family", type=_family_arg, required=True)
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("--table", choices=("md", "csv"), default=None)
    p.add_argument("--n-max", type=int, default=None,
                   help=f"largest n of a --table (default {TABLE_N_MAX})")
    p.add_argument("--m-max", type=int, default=None,
                   help=f"largest m of a --table (default {TABLE_M_MAX})")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("solve", help="exact deficiency by exhaustive search", allow_abbrev=False)
    p.add_argument("--graph", required=True, help="graph JSON path")
    p.add_argument("--cap", type=int, default=4, help="largest filler count to try")
    p.add_argument("--max-labels", type=int, default=16,
                   help="largest label count to search (default %(default)s)")
    p.add_argument("--json", default=None, help="outcome output path ('-' = stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reproduce", help="run the claim manifest", allow_abbrev=False)
    p.add_argument("--select", action="append", default=None, help="group or claim id (repeatable)")
    p.add_argument("--json", default=None, help="report JSON path")
    p.add_argument("--md", default=None, help="report Markdown path")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
