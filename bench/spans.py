"""Outside-in spans around loccforge's layers, for the traced benchmark run.

The tracer replaces each traced function at the name its callers look it up
by (``from .simplex import feasible_point`` in synthesis.py binds
``loccforge.synthesis.feasible_point``), so no file under ``src/`` changes.
Functions called from their own module are wrapped where they are defined.
A lookup that no longer exists is skipped and reported, so a later refactor
of the program shows up as a missing layer instead of a crash.

Each span records its name, start, end, its parent span and the trace id of
the CLI invocation it belongs to. Spans stay in memory until ``write``.
Self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _not_none(result):
    return result is not None


# (span name, defining module, attribute, lookup modules, outcome predicate)
# The outcome predicate, when given, counts calls whose result is a success.
LAYERS = (
    ("hermitian.vectorize", "hermitian", "vectorize",
     ("synthesis", "cones", "measurement"), None),
    ("simplex.feasible_point", "simplex", "feasible_point",
     ("synthesis", "cones", "measurement"), _not_none),
    ("simplex._phase1", "simplex", "_phase1", ("simplex",), None),
    ("synthesis._equations_to_lp", "synthesis", "_equations_to_lp",
     ("synthesis",), None),
    ("synthesis._class_feasible", "synthesis", "_class_feasible",
     ("synthesis",), bool),
    ("synthesis._feasible_family", "synthesis", "_feasible_family",
     ("synthesis",), None),
    ("synthesis.feasibility", "synthesis", "feasibility",
     ("synthesis",), _not_none),
    ("synthesis._emit", "synthesis", "_emit", ("synthesis",), None),
    ("synthesis.synthesize", "synthesis", "synthesize", ("cli",), None),
    ("tree.merge_and_extend", "tree", "merge_and_extend", ("synthesis",), None),
    ("tree.canonical_key", "tree", "canonical_key", ("synthesis",), None),
    ("tree.align_weights", "tree", "align_weights", ("cli",), None),
    ("io.parse_measurement", "io", "parse_measurement", ("cli",), None),
    ("measurement.validate", "measurement", "validate",
     ("io", "synthesis", "cli"), None),
    ("measurement.completeness_certificate", "measurement",
     "completeness_certificate", ("synthesis", "cli"), None),
    ("lifting.lift", "lifting", "lift", ("cli",), None),
    ("cones.nontrivial_intersection", "cones", "nontrivial_intersection",
     ("nogo",), None),
    ("nogo.find_partition_witness", "nogo", "find_partition_witness",
     ("cli",), None),
    ("nogo.find_singular_pair_witness", "nogo", "find_singular_pair_witness",
     ("cli",), None),
)
# methods are wrapped on their class, which every caller reaches
METHODS = (("cones.Cone.__init__", "cones", "Cone", "__init__"),)
ROOT = "cli.main"


class Tracer:
    """Span recorder; ``install`` patches the lookups, ``remove`` restores them."""

    def __init__(self):
        self.names = [ROOT] + [layer[0] for layer in LAYERS] + [m[0] for m in METHODS]
        self._index = {n: i for i, n in enumerate(self.names)}
        # one tuple per span: (span id, parent id, trace id, name index,
        # start, end, outcome); outcome is None, 0 or 1
        self.spans = []
        self.missing = []
        self._stack = [0]      # span id 0 is "no parent"
        self._next = 1
        self._trace = 0
        self._patches = []     # (owner, attribute, original)

    def _wrap(self, fn, name, outcome):
        idx = self._index[name]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self._trace, idx, start, end, None))
                raise
            end = clock()
            stack.pop()
            ok = None if outcome is None else int(outcome(result))
            spans.append((sid, parent, self._trace, idx, start, end, ok))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        def patch(owner, attr, name, defining, outcome):
            orig = getattr(owner, attr, None)
            if orig is None or getattr(orig, "__module__", None) != defining:
                self.missing.append(f"{owner.__name__}.{attr}")
                return
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, outcome))

        for name, defining, attr, lookups, outcome in LAYERS:
            for site in lookups:
                mod = importlib.import_module(f"loccforge.{site}")
                patch(mod, attr, name, f"loccforge.{defining}", outcome)
        for name, defining, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"loccforge.{defining}"),
                          cls_name, None)
            if cls is None:
                self.missing.append(f"{defining}.{cls_name}")
                continue
            patch(cls, attr, name, f"loccforge.{defining}", None)

    def remove(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def invocation(self, trace_id, fn, *args):
        """Run fn(*args) as the root span of one trace."""
        self._trace = trace_id
        return self._wrap(fn, ROOT, None)(*args)

    def summary(self):
        """Per span name: calls, total_s, self_s, and successes if counted."""
        child = defaultdict(float)
        for sid, parent, _, _, start, end, _ in self.spans:
            child[parent] += end - start
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok": 0}
               for n in self.names}
        for sid, _, _, idx, start, end, ok in self.spans:
            s = out[self.names[idx]]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += (end - start) - child.get(sid, 0.0)
            if ok:
                s["ok"] += 1
        return out

    def calls_by_trace(self, name):
        idx = self._index[name]
        out = defaultdict(int)
        for span in self.spans:
            if span[3] == idx:
                out[span[2]] += 1
        return out

    def write(self, path):
        """Spans as JSON lines, after a header line naming the columns."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["span", "parent", "trace", "name",
                                             "start", "end", "ok"],
                                 "names": self.names}) + "\n")
            for sid, parent, trace, idx, start, end, ok in self.spans:
                fh.write(json.dumps([sid, parent, trace, self.names[idx],
                                     start, end, ok]) + "\n")
