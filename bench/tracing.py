"""Spans around calls into gemkit, recorded from outside the package.

`Tracer.install` replaces each traced public function at every module
attribute that holds it (`gemkit.census`, `gemkit.core.census`,
`gemkit.genus.census`, ...), so calls between gemkit's own modules are
seen as well; `uninstall` puts the originals back, and untraced passes
run unpatched code.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# layer (module) -> traced public functions
TRACED = {
    "gemfile": ("parse_gem", "export_gem"),
    "core": ("census", "residue_components", "face_vector", "validate",
             "boundary_graph"),
    "constructions": ("double", "find_one_dipoles", "remove_one_dipole",
                      "crystallize_double", "sphere_connector_sum",
                      "connected_sum", "interval_product"),
    "genus": ("regular_genus", "rho_epsilon", "rho_epsilon_via_double",
              "rho_epsilon_census", "certify_minimal", "rank_upper_bound"),
    "verify": ("verify_identities", "verify_bounds"),
    "catalog": ("catalog_get",),
    "cli": ("main",),
}
CONSTRUCTOR = "core.ColoredGraph"
SUBPROCESS = "cli.subprocess"
SPAN_NAMES = (
    [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    + [CONSTRUCTOR, SUBPROCESS]
)
# top-level calls whose census count is reported per call
TOP_LEVEL = ("genus.regular_genus", "verify.verify_identities",
             "verify.verify_bounds", "genus.certify_minimal",
             "constructions.crystallize_double")


def _arg_len(args):
    return len(args[0])


def _graph_hash(args):
    return hash(args[0])


def _vertex_count(args):
    return args[0].vertex_count


# span name -> (measured before or after the call, function of args/result)
EXTRA = {
    "gemfile.parse_gem": ("args", _arg_len),
    "gemfile.export_gem": ("result", len),
    "core.census": ("args", _graph_hash),
    "constructions.double": ("args", _graph_hash),
    "core.residue_components": ("args", _vertex_count),
    "constructions.find_one_dipoles": ("result", len),
}

NAME, START, END, PARENT, GEM, EXTRA_VALUE = range(6)


class Tracer:
    """Span recorder: each span is [name, start, end, parent, gem, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.gem = "setup"
        self._open = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        clock = time.perf_counter
        when, measure = EXTRA.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            extra = measure(args) if when == "args" else None
            parent = tracer._open
            span = [name, 0.0, 0.0, parent, tracer.gem, extra]
            tracer._open = len(spans)
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                tracer._open = parent
            if when == "result":
                span[EXTRA_VALUE] = measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "gemkit" or key.startswith("gemkit."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"gemkit.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        graph_class = sys.modules["gemkit.core"].ColoredGraph
        original_init = graph_class.__dict__["__init__"]
        self._patches.append((graph_class, "__init__", original_init))
        graph_class.__init__ = self._wrap(CONSTRUCTOR, original_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as a CLI subprocess."""
        span = [name, 0.0, 0.0, self._open, self.gem, None]
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()

    def write(self, path, ranges) -> None:
        """Spans of the given labelled index ranges, one JSON list per
        line: index, name, start, end, parent index (-1 for none), gem,
        range label."""
        with open(path, "w", encoding="utf-8") as fh:
            for label, (lo, hi) in ranges.items():
                for i in range(lo, hi):
                    s = self.spans[i]
                    fh.write(json.dumps(
                        [i, s[NAME], s[START], s[END], s[PARENT], s[GEM], label]
                    ) + "\n")


def _outermost_top(spans, indices):
    """Map span index -> index of its outermost TOP_LEVEL ancestor-or-self."""
    top = {}
    for i in indices:
        parent = spans[i][PARENT]
        inherited = top.get(parent) if parent >= 0 else None
        if inherited is not None:
            top[i] = inherited
        elif spans[i][NAME] in TOP_LEVEL:
            top[i] = i
        else:
            top[i] = None
    return top


def layer_metrics(spans, indices, scale_at) -> dict[str, float]:
    """Calls, total and self time per span name, plus counters and ratios.
    A span's duration is scaled by `scale_at(start)`."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    child = dict.fromkeys(SPAN_NAMES, 0.0)
    extras: dict[str, list] = {name: [] for name in EXTRA}
    for i in indices:
        s = spans[i]
        duration = (s[END] - s[START]) * scale_at(s[START])
        calls[s[NAME]] += 1
        total[s[NAME]] += duration
        if s[PARENT] >= 0:
            child[spans[s[PARENT]][NAME]] += duration
        if s[NAME] in extras:
            extras[s[NAME]].append(s[EXTRA_VALUE])
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = total[name] - child[name]
    out["gemfile.bytes"] = sum(extras["gemfile.parse_gem"]) + sum(
        extras["gemfile.export_gem"])
    for name in ("core.census", "constructions.double"):
        keys = extras[name]
        out[f"{name}.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    out["core.residue_components.vertex_passes"] = sum(
        extras["core.residue_components"])
    found = sum(extras["constructions.find_one_dipoles"])
    out["constructions.find_one_dipoles.used_ratio"] = (
        calls["constructions.remove_one_dipole"] / found if found else 0.0
    )
    roots = dict.fromkeys(TOP_LEVEL, 0)
    censuses = dict.fromkeys(TOP_LEVEL, 0)
    for i, t in _outermost_top(spans, indices).items():
        if t == i:
            roots[spans[i][NAME]] += 1
        elif t is not None and spans[i][NAME] == "core.census":
            censuses[spans[t][NAME]] += 1
    for name in TOP_LEVEL:
        out[f"{name}.census_calls"] = (
            censuses[name] / roots[name] if roots[name] else 0.0)
    return out


def top_call_breakdown(spans, indices, names) -> list[tuple[str, str, dict]]:
    """(gem, top-level call, span name -> descendant count) per outermost
    top-level span, in call order."""
    top = _outermost_top(spans, indices)
    rows: dict[int, dict] = {}
    for i in indices:
        t = top[i]
        if t is None:
            continue
        counts = rows.setdefault(t, dict.fromkeys(names, 0))
        if i != t and spans[i][NAME] in counts:
            counts[spans[i][NAME]] += 1
    return [(spans[t][GEM], spans[t][NAME], rows[t]) for t in sorted(rows)]
