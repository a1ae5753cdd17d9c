"""The semdef benchmark: solve, certify and reproduce workloads.

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30     # every workload in turn

Run from anywhere; it finds semdef in ../src relative to this file.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end figures of the chosen workload; with --trace 1 the run traces
passes of every workload and prints the per-layer figures, whichever
--workload is named.  See README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import inputs
from calib import cpu_now
from check import closed_form_fillers, counting_bound, family_edges, sem_error

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected_solve.json"

WORKLOADS = ("solve", "certify", "reproduce")
COLD_STARTS = 21  # cold starts per setup_s figure, each paired with a cold calibration
# calibration units timed after every operation (calib.py); reproduce's are
# a cold process, like its operation
CAL_UNITS = {"solve": 4, "certify": 1, "reproduce": 20}
SETUP_CAL_UNITS = 2
MANIFEST_CLAIMS = 40
TRACE_ROUNDS = 3  # untraced/traced pass pairs of each workload in a traced run

# Claim kinds grouped by their first word, for reproduce.kind_*_s.
KIND_CLASSES = {
    "construct": "construct",
    "solver": "solver",
    "counting": "bounds",
    "bound": "bounds",
    "bounds": "bounds",
    "erratum": "errata",
    "magic": "magic",
    "open": "open",
}

PER_LAYER_UNITS = {
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.deficiency_s": "s",
    "solver.refute_nodes": "count",
    "solver.witness_nodes": "count",
    "solver.calls": "count",
    "solver.call_s_median": "s",
    "graphs.build_s": "s",
    "graphs.edges_built": "count",
    "graphs.edges_per_s": "1/s",
    "constructions.construct_s": "s",
    "constructions.certs": "count",
    "labeling.verify_s": "s",
    "labeling.verify_edges_per_s": "1/s",
    "labeling.json_s": "s",
    "bounds.family_bounds_s": "s",
    "reproduce.run_s": "s",
    **{f"reproduce.kind_{c}_s": "s" for c in sorted(set(KIND_CLASSES.values()))},
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "cli.report_bytes": "bytes",
    "trace.solve_overhead_pct": "%",
    "trace.certify_overhead_pct": "%",
    "trace.reproduce_overhead_pct": "%",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def cold_run(cmd: list[str]) -> float:
    """Wall seconds of one child process run to its end; it must exit 0."""
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


CLI = [sys.executable, "-m", "semdef.cli"]


class ColdStarts:
    """Samples of setup_s: time from a cold interpreter to ready for the
    first operation, each over the time of a cold calibration process run
    right after it.  The samples are spread over the run, between passes."""

    def __init__(self, workload: str):
        if workload == "reproduce":
            self.cmd = CLI + ["--help"]
        else:
            self.cmd = [sys.executable, str(HERE / "probe.py"), workload]
        self.cal = calib.Cold(SETUP_CAL_UNITS, child_env(), ROOT)
        cold_run(self.cmd)  # a fresh checkout compiles its bytecode here; not counted
        self.cal.run()
        self.samples: list[tuple[float, float]] = []  # (wall, calibration wall)

    def take(self, share: float) -> None:
        """Top the samples up to share (0..1) of COLD_STARTS."""
        while len(self.samples) < round(COLD_STARTS * min(share, 1.0)):
            self.samples.append((cold_run(self.cmd), self.cal.run()[0]))

    def median(self) -> float:
        """Median set-up time in reference seconds."""
        self.take(1.0)
        return statistics.median(w / c for w, c in self.samples) * self.cal.reference_s


# ---------------------------------------------------------------------------
# Workloads: keys() lists one pass's operations, call() runs one through
# semdef, check() returns a problem or None.  The first answer for a key is
# checked independently of semdef; later answers must equal it.
# ---------------------------------------------------------------------------

class Solve:
    def __init__(self):
        from semdef import solver

        self.graphs = inputs.prepare("solve")
        self.solver = solver
        rows = {r["name"]: r for r in json.loads(EXPECTED.read_text())["instances"]}
        self.cases = {}
        for name, family, n, m, cap in inputs.SOLVE_INSTANCES:
            row = rows.get(name)
            if row is None or (row["family"], row["n"], row["m"], row["cap"]) != (family, n, m, cap):
                raise SystemExit(f"{EXPECTED.name} is stale for {name}; run bench/reference.py --write")
            p, edges = family_edges(family, n, m)
            g = self.graphs[name]
            if g.vertex_count != p or [tuple(e) for e in g.edges] != edges:
                raise SystemExit(f"semdef builds a different graph for {name}")
            self.cases[name] = (cap, p, edges, row["deficiency"])
        self.seen: dict = {}

    def keys(self) -> list:
        return list(self.cases)

    def call(self, name):
        return self.solver.deficiency(self.graphs[name], self.cases[name][0])

    def check(self, name, out) -> str | None:
        labels = None if out.witness is None else list(out.witness.labeling.labels)
        digest = (out.deficiency, labels, out.nodes)
        if name in self.seen:
            return None if self.seen[name] == digest else f"{name}: answer or node count changed"
        self.seen[name] = digest
        cap, p, edges, expected = self.cases[name]
        if out.deficiency != expected:
            return f"{name}: deficiency {out.deficiency}, reference table says {expected}"
        if labels is None:
            return None
        t = out.deficiency
        if out.witness.isolated != t:
            return f"{name}: witness has {out.witness.isolated} fillers, not {t}"
        if t < counting_bound(p, len(edges)):
            return f"{name}: deficiency {t} is below the counting bound"
        err = sem_error(p, edges, labels, p + t)
        return None if err is None else f"{name}: witness {labels}: {err}"


class Certify:
    def __init__(self):
        from semdef import bounds, graphs, labeling

        inputs.prepare("certify")
        self.bounds, self.graphs, self.labeling = bounds, graphs, labeling
        self.seen: dict = {}

    def keys(self) -> list:
        return list(inputs.CERTIFY_GRID)

    def call(self, key):
        family, n, m = key
        result = inputs.construct(family, n, m)
        text = json.dumps(result.certificate.to_json_dict())
        graph, labeling, _ = self.labeling.certificate_from_json_dict(json.loads(text))
        verdict = self.labeling.verify_sem(graph, labeling)
        b = self.bounds.family_bounds(self.graphs.FamilyDescriptor(family, n=n, m=m))
        return text, result.claimed_isolated, verdict, b

    def check(self, key, out) -> str | None:
        text, claimed, verdict, b = out
        if not verdict:
            return f"{key}: semdef rejects its own re-read certificate"
        fields = (claimed, verdict.isolated, verdict.min_edge_sum, verdict.magic_constant,
                  b.lower, b.upper)
        digest = (hashlib.sha256(text.encode()).hexdigest(), fields)
        if key in self.seen:
            return None if self.seen[key] == digest else f"{key}: output changed between passes"
        self.seen[key] = digest
        family, n, m = key
        data = json.loads(text)
        p, edges = family_edges(family, n, m)
        if data["graph"]["p"] != p or [tuple(e) for e in data["graph"]["edges"]] != edges:
            return f"{key}: certificate graph is not the family graph"
        labels, t = data["labels"], data["isolated"]
        err = sem_error(p, edges, labels, p + t)
        if err is not None:
            return f"{key}: {err}"
        s = min(labels[u] + labels[v] for u, v in edges)
        k = p + t + len(edges) + s
        expect_t = closed_form_fillers(family, n, m)
        if (t, claimed, data["s"], data["k"]) != (expect_t, expect_t, s, k):
            return f"{key}: fillers/s/k {(t, claimed, data['s'], data['k'])}, expected {(expect_t, s, k)}"
        if fields[1:4] != (t, s, k):
            return f"{key}: semdef's verdict {fields[1:4]} differs from {(t, s, k)}"
        if b.upper is None or not b.lower <= t <= b.upper:
            return f"{key}: family_bounds {b.lower}..{b.upper} excludes {t} fillers"
        return None


GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


class Reproduce:
    def __init__(self):
        self.report = OUT / f"report-{os.getpid()}.json"
        self.first: bytes | None = None

    def keys(self) -> list:
        return ["manifest"]

    def call(self, key):
        proc = subprocess.run(CLI + ["reproduce", "--json", str(self.report)], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if proc.returncode != 0:
            raise RuntimeError(f"semdef reproduce exited {proc.returncode}: {proc.stderr[-300:]!r}")
        return self.report.read_bytes()

    def check(self, key, out) -> str | None:
        return self.check_text(GENERATED_AT.sub(b'"generated_at": ""', out))

    def check_text(self, text: bytes) -> str | None:
        """text is a report whose generated_at is emptied."""
        if self.first is not None:
            return None if text == self.first else "reports differ beyond generated_at"
        self.first = text
        data = json.loads(text)
        statuses = [e["status"] for e in data["entries"]]
        if len(statuses) != MANIFEST_CLAIMS or data["summary"]["total"] != MANIFEST_CLAIMS:
            return f"report has {len(statuses)} claims, expected {MANIFEST_CLAIMS}"
        if "fail" in statuses or data["summary"]["fail"] != 0:
            return f"{statuses.count('fail')} claims fail"
        return None

    def close(self):
        self.report.unlink(missing_ok=True)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, fn, check):
        """Run one operation; return (wall, cpu) and record its outcome."""
        self.attempted += 1
        c0 = cpu_now()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # count the failure and go on with the pass
            self.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
            return time.perf_counter() - t0, cpu_now() - c0
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        problem = check(out)
        if problem is not None:
            self.problems.append(problem)
            print(f"wrong answer: {problem}", file=sys.stderr)
        return wall, cpu

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def run_pass(w, rng: random.Random, tally: Tally, tracer=None) -> dict:
    """One pass over the workload's operations in seeded order:
    {key: (wall, cpu)}."""
    keys = w.keys()
    rng.shuffle(keys)
    times = {}
    for key in keys:
        if tracer is not None:
            tracer.op += 1
        times[key] = tally.op(lambda: w.call(key), lambda out: w.check(key, out))
    return times


def fastest(passes: list[dict], i: int = 0) -> float:
    """A pass's wall (i=0) or CPU (i=1) time, as the sum over its operations
    of each one's fastest time in the given passes.  The traced run uses it
    to compare passes of one run, made within seconds of each other."""
    return sum(min(p[key][i] for p in passes) for key in passes[0])


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Run whole passes for `seconds`.  Each operation's time is divided by
    the mean of the calibrations run right before and right after it; a
    pass's wall_s (cpu_s) is the sum over its operations of the median of
    these ratios in the run, times the calibration's reference time."""
    starts = ColdStarts(workload)
    starts.take(1 / 3)
    w = {"solve": Solve, "certify": Certify, "reproduce": Reproduce}[workload]()
    units = CAL_UNITS[workload]
    cal = (calib.Cold(units, child_env(), ROOT) if workload == "reproduce"
           else calib.InProcess(units))
    cal.run()  # warm-up, not counted
    rng = random.Random(seed)
    tally = Tally()
    ratios: dict = {}  # key -> [(wall ratio, cpu ratio)]
    passes, cals = [], []  # raw pass wall times and calibration wall times, for stderr
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < seconds:
            keys = w.keys()
            rng.shuffle(keys)
            before = cal.run()
            cals.append(before[0])
            passes.append(0.0)
            for key in keys:
                wall, cpu = tally.op(lambda: w.call(key), lambda out: w.check(key, out))
                after = cal.run()
                cals.append(after[0])
                ratios.setdefault(key, []).append(
                    (2 * wall / (before[0] + after[0]), 2 * cpu / (before[1] + after[1])))
                before = after
                passes[-1] += wall
            starts.take(1 / 3 + (time.perf_counter() - start) / seconds)
        setup = starts.median()
    finally:
        if isinstance(w, Reproduce):
            w.close()
    who = resource.RUSAGE_CHILDREN if workload == "reproduce" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024

    def scaled(i: int) -> float:
        return cal.reference_s * sum(statistics.median(r[i] for r in rs) for rs in ratios.values())

    print(f"{workload}: {len(passes)} passes, raw pass wall min {min(passes):.4f} median "
          f"{statistics.median(passes):.4f} max {max(passes):.4f} s; calibration median "
          f"{statistics.median(cals):.4f} s (reference {cal.reference_s:.4f} s); "
          f"{len(starts.samples)} cold starts, raw median "
          f"{statistics.median(w for w, _ in starts.samples):.4f} s", file=sys.stderr)
    return tally.result({
        "wall_s": {"value": scaled(0), "unit": "s"},
        "cpu_s": {"value": scaled(1), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    })


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

class InProcessReproduce:
    """reproduce.run() in this process, rendered as the CLI's report JSON."""

    def __init__(self, cli: Reproduce):
        from semdef import reproduce

        self.rep, self.cli = reproduce, cli

    def keys(self) -> list:
        return ["run"]

    def call(self, key):
        report = self.rep.run()
        return (json.dumps(self.rep.report_json_dict(report, generated_at=""), indent=2)
                + "\n").encode()

    def check(self, key, out) -> str | None:
        return self.cli.check_text(out)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def solve_figures(sp) -> dict:
    from tracing import NOTE

    finds = [sp.spans[i][NOTE] for i in sp.where({"find_sem"})]
    defs = sp.outermost({"deficiency"})
    nodes = sum(sp.spans[i][NOTE] for i in defs)
    return {
        "solver.nodes": nodes,
        "solver.nodes_per_s": _rate(nodes, sp.self_seconds().get("solver", 0.0)),
        "solver.deficiency_s": sp.total(defs),
        "solver.refute_nodes": sum(n for n, hit in finds if not hit),
        "solver.witness_nodes": sum(n for n, hit in finds if hit),
    }


def certify_figures(sp) -> dict:
    from tracing import NAME, NOTE

    build_s = sp.total(sp.outermost(sp.layer_names("graphs")))
    edges = sum(s[NOTE] for s in sp.spans if s[NAME] == "__init__")
    verify = sp.outermost({"verify_sem"})
    verify_s = sp.total(verify)
    cons = sp.outermost(sp.layer_names("constructions"))
    return {
        "graphs.build_s": build_s,
        "graphs.edges_built": edges,
        "graphs.edges_per_s": _rate(edges, build_s),
        "constructions.construct_s": sp.total(cons),
        "constructions.certs": len(cons),
        "labeling.verify_s": verify_s,
        "labeling.verify_edges_per_s": _rate(sum(sp.spans[i][NOTE] for i in verify), verify_s),
        "labeling.json_s": sp.total(sp.outermost({"certificate_from_json_dict", "to_json_dict"})),
        "bounds.family_bounds_s": sp.total(sp.outermost({"family_bounds"})),
    }


def reproduce_figures(sp) -> dict:
    finds = sp.where({"find_sem"})
    return {
        "solver.calls": len(finds),
        "solver.call_s_median": statistics.median(sp.dur(i) for i in finds),
    }


def traced_run(seed: int) -> dict:
    """TRACE_ROUNDS pairs of an untraced and a traced pass of each workload.
    Per-layer figures are medians over the traced passes; the overhead
    compares the two kinds of pass with the estimator of wall_s."""
    from tracing import Spans, Tracer

    rng = random.Random(seed)
    tally = Tally()
    metrics: dict = {}
    dumps: dict = {}
    cli = Reproduce()
    try:
        in_process = InProcessReproduce(cli)
        for name, w, figures in (("solve", Solve(), solve_figures),
                                 ("certify", Certify(), certify_figures),
                                 ("reproduce", in_process, reproduce_figures)):
            plain, traced, rounds = [], [], []
            for _ in range(TRACE_ROUNDS):
                plain.append(run_pass(w, rng, tally))
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(run_pass(w, rng, tally, tracer))
                finally:
                    tracer.uninstall()
                dumps.setdefault(name, []).append(tracer.spans)
                rounds.append(figures(Spans(tracer.spans)))
            metrics.update({k: statistics.median(r[k] for r in rounds) for k in rounds[0]})
            metrics[f"trace.{name}_overhead_pct"] = 100.0 * (fastest(traced) / fastest(plain) - 1.0)
        metrics["reproduce.run_s"] = fastest(plain)
        cli_passes = [run_pass(cli, rng, tally) for _ in range(TRACE_ROUNDS)]
        metrics["cli.overhead_s"] = fastest(cli_passes) - metrics["reproduce.run_s"]
        metrics["cli.report_bytes"] = cli.report.stat().st_size
    finally:
        cli.close()

    # seconds per claim kind: each claim run alone, fastest of TRACE_ROUNDS
    from semdef.manifest import CLAIMS

    best: dict = {}
    for _ in range(TRACE_ROUNDS):
        for claim in CLAIMS:
            wall = tally.op(lambda: in_process.rep.run(selection={claim.id}),
                            lambda r: None if len(r.entries) == 1 and not r.failed
                            else f"{claim.id} fails")[0]
            best[claim.id] = min(wall, best.get(claim.id, wall))
    for c in set(KIND_CLASSES.values()):
        metrics[f"reproduce.kind_{c}_s"] = 0.0
    for claim in CLAIMS:
        metrics[f"reproduce.kind_{KIND_CLASSES[claim.kind.split('-')[0]]}_s"] += best[claim.id]

    bare, cold = [], []
    for _ in range(COLD_STARTS // 2):
        bare.append(cold_run([sys.executable, "-c", "pass"]))
        cold.append(cold_run(CLI + ["--help"]))
    metrics["cli.startup_s"] = statistics.median(cold) - statistics.median(bare)

    out = OUT / f"trace-{seed}.json"
    out.write_text(json.dumps({
        "fields": ["layer", "name", "op", "parent", "start", "end", "note"],
        "workloads": {k: [{"self_s": Spans(s).self_seconds(), "spans": s} for s in v]
                      for k, v in dumps.items()},
    }))
    print(f"spans written to {out.relative_to(ROOT)}", file=sys.stderr)
    return tally.result({k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER_UNITS.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="semdef benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="workload to run (default: each in turn)")
    ap.add_argument("--seed", type=int, default=0, help="orders the instances in each pass")
    ap.add_argument("--seconds", type=float, default=30.0, help="how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run printing the per-layer figures")
    args = ap.parse_args(argv)
    if not (SRC / "semdef" / "__init__.py").is_file():
        print(f"error: no semdef sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        rc = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd).returncode)
            if args.trace:
                break
        return rc
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
