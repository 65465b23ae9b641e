"""Span tracing of photonfusion from outside the library.

A Tracer replaces every binding of a layer's public function with a
wrapper that records one span per call: (name, start, end, parent, op).
Bindings are found in every loaded ``photonfusion`` module, including the
defining one, so both cross-layer calls (``experiment`` calling its own
``apply_element`` import) and intra-layer calls (``build_apparatus``
calling ``assemble_apparatus``) are seen under the name the caller binds.
Nothing in the library is edited; leaving the ``with`` block restores
every binding.

Spans stay in memory until the run ends. Counters ride on the same
wrappers, so work counts are taken at the layer boundaries the spans
mark. ``layer_metrics`` turns one pass's spans and counters into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter

LAYERS = (
    "config",
    "topology",
    "sources",
    "fock",
    "elements",
    "experiment",
    "analysis",
    "cli",
)
PACKAGE = "photonfusion"

ROLES = ("fusion", "compensator", "analyzer")
BRANCHES = ("interfering", "distinguishable")
_ROLE_PREFIXES = (("fuse-", "fusion"), ("compensator-", "compensator"), ("analyzer-", "analyzer"))


def element_role(element) -> str:
    """fusion, compensator or analyzer, read from the element name prefix."""
    for prefix, role in _ROLE_PREFIXES:
        if element.name.startswith(prefix):
            return role
    return "other"


def registry_branch(registry) -> str:
    """distinguishable when the modes carry a source mark (tags m1, m2, ...)."""
    for lab in registry:
        tag = lab.tag
        if len(tag) > 1 and tag[0] == "m" and tag[1:].isdigit():
            return "distinguishable"
    return "interfering"


def self_times(spans, base: int = 0) -> list:
    """Per span: its duration minus the part covered by its child spans.

    spans is a sequence of (name, start, end, parent, op) with parent the
    index of the enclosing span or -1; base is subtracted from parent
    indices, so a slice of a longer span list can be passed. Child
    intervals are merged before they are subtracted, so overlapping
    children are not counted twice.
    """
    children: dict = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3] - base, []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _public_functions(module):
    """Plain, non-generator functions defined in module, by name."""
    out = {}
    for name, value in vars(module).items():
        if name.startswith("_") or not isinstance(value, types.FunctionType):
            continue
        if value.__module__ != module.__name__ or inspect.isgeneratorfunction(value):
            continue
        out[name] = value
    return out


class Tracer:
    """Collects spans and boundary counters for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list = []
        self._patched: list = []
        self._branch_memo: dict = {}

    # ---- Installing wrappers ----

    def __enter__(self):
        """Wrap every binding of each layer's public functions."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module).items():
                wrappers[fn] = self._wrap(fn, f"{layer}.{name}")
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        """Restore every binding the wrappers replaced."""
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)
        return False

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = self._counter_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if counter is not None:
                label = counter(args, kwargs, result)
                if label is not None:
                    spans[idx] = (label, start, end, parent, self.op)
            return result

        return wrapper

    # ---- Boundary counters ----

    def _counter_for(self, name):
        counts = self.counts

        def patterns(args, kwargs, admitted):
            counts["topology.patterns_checked"] += 1
            counts["topology.patterns_admitted"] += bool(admitted)

        def ensembles(args, kwargs, members):
            counts["sources.ensembles"] += 1
            counts["sources.members"] += len(members)

        def tensor(args, kwargs, state):
            counts["fock.tensor.calls"] += 1
            counts["fock.tensor.terms_out"] += len(state.terms)

        def relabel(args, kwargs, state):
            counts["fock.relabel.calls"] += 1

        def element(args, kwargs, state):
            before = args[0] if args else kwargs["state"]
            el = args[1] if len(args) > 1 else kwargs["element"]
            key = f"elements.{element_role(el)}.{self._branch(before.registry)}"
            counts[key + ".calls"] += 1
            counts[key + ".terms_in"] += len(before.terms)
            counts[key + ".terms_out"] += len(state.terms)
            return key

        def simple(metric):
            def count(args, kwargs, result):
                counts[metric] += 1

            return count

        return {
            "topology.pattern_admits_coincidence": patterns,
            "sources.source_ensemble": ensembles,
            "fock.tensor_product": tensor,
            "fock.map_modes": relabel,
            "elements.apply_element": element,
            "experiment.assemble_apparatus": simple("experiment.assemble.calls"),
            "experiment.absolute_outcome_distribution": simple(
                "experiment.distribution.calls"
            ),
            "analysis.witness_from_histograms": simple("analysis.witness.calls"),
        }.get(name)

    def _branch(self, registry) -> str:
        hit = self._branch_memo.get(id(registry))
        if hit is None:
            # keep the registry alive so its id is never reused
            hit = (registry, registry_branch(registry))
            self._branch_memo[id(registry)] = hit
        return hit[1]

    # ---- Output ----

    def write(self, path) -> None:
        """Write every span once, columnar, as gzip'd JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": [index[s[0]] for s in self.spans],
            "start_s": [round(s[1] - t0, 9) for s in self.spans],
            "end_s": [round(s[2] - t0, 9) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "op": [s[4] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---- Per-layer metrics ----

# Self-time groups: metric -> span names (or layer prefix ending in ".")
SELF_GROUPS = {
    "topology.self_s": ("topology.",),
    "sources.self_s": ("sources.",),
    "fock.tensor.self_s": ("fock.tensor_product",),
    "fock.relabel.self_s": ("fock.map_modes",),
    "experiment.assemble.self_s": (
        "experiment.assemble_apparatus",
        "experiment.build_apparatus",
    ),
    "experiment.distribution.self_s": (
        "experiment.absolute_outcome_distribution",
        "experiment.outcome_distribution",
    ),
    "experiment.calibrate.self_s": (
        "experiment.calibrate_overlaps",
        "experiment.synthesizer_visibility",
        "experiment.fusion_visibility",
        "experiment.parity_visibility",
    ),
    "experiment.monte_carlo.self_s": ("experiment.monte_carlo_counts",),
    "experiment.histogram_io.self_s": (
        "experiment.histogram_to_lines",
        "experiment.histogram_from_lines",
    ),
    "analysis.witness.self_s": ("analysis.",),
    "config.load.self_s": ("config.",),
    "cli.simulate.self_s": ("cli.cmd_simulate",),
    "cli.analyze.self_s": ("cli.cmd_analyze",),
}
for _role in ROLES:
    for _branch in BRANCHES:
        SELF_GROUPS[f"elements.{_role}.{_branch}.self_s"] = (
            f"elements.{_role}.{_branch}",
        )

COUNT_METRICS = (
    "topology.patterns_checked",
    "topology.patterns_admitted",
    "sources.ensembles",
    "sources.members",
    "fock.tensor.calls",
    "fock.tensor.terms_out",
    "fock.relabel.calls",
    *(
        f"elements.{role}.{branch}.{field}"
        for role in ROLES
        for branch in BRANCHES
        for field in ("calls", "terms_in", "terms_out")
    ),
    "experiment.assemble.calls",
    "experiment.distribution.calls",
    "analysis.witness.calls",
)


def _in_group(name: str, members) -> bool:
    return any(name.startswith(m) if m.endswith(".") else name == m for m in members)


def layer_metrics(spans, counts, base: int = 0) -> dict:
    """Counts as integers and grouped self times in seconds for one pass.

    spans is the pass's slice of the span list, starting at index base.
    """
    by_name: Counter = Counter()
    for span, own in zip(spans, self_times(spans, base)):
        by_name[span[0]] += own
    out = {name: int(counts.get(name, 0)) for name in COUNT_METRICS}
    for metric, members in SELF_GROUPS.items():
        out[metric] = sum((t for n, t in by_name.items() if _in_group(n, members)), 0.0)
    return out
