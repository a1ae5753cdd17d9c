"""Spans around calls into semdef's public functions, kept in memory.

Tracer.install() replaces each traced function, in every semdef module
that binds it, with a wrapper that records (layer, name, op, parent,
start, end, note); uninstall() puts the originals back.  Nothing inside
semdef changes, so the spans sit at the boundaries between its modules.
A module or name missing from semdef is skipped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> (module, public functions traced)
TARGETS = {
    "graphs": ("semdef.graphs", ("empty_graph", "path", "cycle", "star", "wheel",
                                 "wheel_minus_spoke", "join", "add_isolated", "make_family")),
    "labeling": ("semdef.labeling", ("verify_sem", "certificate_from_json_dict")),
    "constructions": ("semdef.constructions", ()),  # every construct_* function
    "bounds": ("semdef.bounds", ("counting_lower_bound", "family_bounds",
                                 "check_bound_identities")),
    "solver": ("semdef.solver", ("find_sem", "deficiency")),
    "reproduce": ("semdef.reproduce", ("run",)),
}

# Graph canonicalisation and certificate serialisation are methods.
METHODS = (
    ("graphs", "semdef.graphs", "Graph", "__init__"),
    ("labeling", "semdef.labeling", "SemCertificate", "to_json_dict"),
)

# What a span notes beyond its times: edges handled, or search nodes.
NOTES = {
    "__init__": lambda args, out: len(args[0].edges),
    "verify_sem": lambda args, out: len(args[0].edges),
    "find_sem": lambda args, out: (out.nodes, out.witness is not None),
    "deficiency": lambda args, out: out.nodes,
}

LAYER, NAME, OP, PARENT, START, END, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.op = 0

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, self.op, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, out)
            return out

        return traced

    def install(self) -> None:
        for modname, _ in TARGETS.values():
            try:
                importlib.import_module(modname)
            except ModuleNotFoundError:
                pass
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "semdef" or n.startswith("semdef."))]
        for layer, (modname, names) in TARGETS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if not names:
                names = [n for n in dir(mod) if n.startswith("construct_")]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapped)
                            self._undo.append((m, attr, fn))
        for layer, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            fn = None if cls is None else cls.__dict__.get(meth)
            if fn is not None:
                setattr(cls, meth, self._wrap(layer, meth, fn))
                self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, fn = self._undo.pop()
            setattr(obj, attr, fn)


class Spans:
    """Queries over a finished list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans

    def dur(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def where(self, names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[NAME] in names]

    def outermost(self, names) -> list[int]:
        """Spans named in names with no ancestor named in names."""
        out = []
        for i, s in enumerate(self.spans):
            if s[NAME] not in names:
                continue
            j = s[PARENT]
            while j >= 0 and self.spans[j][NAME] not in names:
                j = self.spans[j][PARENT]
            if j < 0:
                out.append(i)
        return out

    def total(self, idx) -> float:
        return sum(self.dur(i) for i in idx)

    def self_seconds(self) -> dict:
        """Per layer: span time minus the time of each span's direct children."""
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += self.dur(i)
        out: dict = {}
        for i, s in enumerate(self.spans):
            out[s[LAYER]] = out.get(s[LAYER], 0.0) + self.dur(i) - child[i]
        return out

    def layer_names(self, layer: str) -> set:
        return {s[NAME] for s in self.spans if s[LAYER] == layer}
