"""The benchmark's three workloads: inputs, per-gem pipelines, output checks.

Every workload turns a seed into a fixed batch of items.  A pass runs
each item's pipeline of gemkit calls ("steps") from its GEM text, so
nothing memoized on a graph object carries over between passes.  Each
step's outcome is one of

* ``ok``
* ``contract``: a GemError (CLI exit code 2) naming a violated contract,
  which is a correct answer;
* ``defect``: the known "genus formulas disagree" error on an input that
  the oracle shows is no manifold gem (a 3-colored residue is neither a
  2-sphere nor a 2-disk).  gemkit lacks that manifold gate, so it raises
  a spurious error instead of a contract one;
* ``failed``: any other exception, a "disagree ... encoding bug" error on
  an input that passes the oracle's manifold condition, or an output
  that a check below finds wrong.

Checks run outside the timed region and share no algorithm with the
code under test: a BFS component counter and GEM reader of the
benchmark's own (``oracle.py``), properties the paper proves for the
constructed inputs, and, for inputs that do not depend on the seed,
digests of the outputs recorded at the commit that introduced the
benchmark (``digests.json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gemkit
import gemkit.cli

import oracle

DIGESTS = Path(__file__).with_name("digests.json")


class _Abort(Exception):
    """Stops an item's pipeline after a step that did not succeed."""


def classify_error(message: str) -> str:
    """A "disagree" error is a ``defect`` until `Item.known_defect` is
    checked outside the timed region."""
    if "disagree" in message or "encoding bug" in message:
        return "defect"
    return "contract"


@dataclass
class Item:
    """One gem of a workload's batch, as GEM text.  `anchor` items do not
    depend on the seed; their outputs are compared with recorded digests."""

    id: str
    text: str
    info: dict = field(default_factory=dict)
    anchor: bool = False

    def known_defect(self) -> bool:
        """Whether the input fails the oracle's manifold condition, so a
        "disagree" error on it is the known defect rather than a failure."""
        if "singular" not in self.info:
            self.info["singular"] = oracle.Gem(self.text).singular_residue()
        return self.info["singular"] is not None


@dataclass
class StepResult:
    outcome: str
    value: object
    render: object


class ItemRun:
    """Runs the steps of one item, recording each outcome and output."""

    def __init__(self):
        self.steps: dict[str, StepResult] = {}
        self.complete = True

    def step(self, name, render, fn, *args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except gemkit.GemError as exc:
            self.steps[name] = StepResult(
                classify_error(str(exc)), f"GemError: {exc}", None)
            self.complete = False
            raise _Abort from None
        except Exception as exc:  # any crash of the code under test is a failure
            self.steps[name] = StepResult(
                "failed", f"{type(exc).__name__}: {exc}", None)
            self.complete = False
            raise _Abort from None
        self.steps[name] = StepResult("ok", value, render)
        return value

    def cli(self, name, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gemkit.cli.main(argv)
        except Exception as exc:  # an escaping exception is a CLI failure
            self.steps[name] = StepResult(
                "failed", f"{type(exc).__name__}: {exc}", None)
            return
        outcome = classify_error(err.getvalue()) if code == 2 else "ok"
        self.steps[name] = StepResult(outcome, (code, out.getvalue()), _render_cli)

    def records(self) -> dict[str, str]:
        """Canonical text of each step's output, or of its outcome."""
        out = {}
        for name, s in self.steps.items():
            if s.render:
                out[name] = s.render(s.value)
            else:
                out[name] = s.outcome if s.outcome == "ok" else f"{s.outcome}: {s.value}"
        return out


# -- canonical records of gemkit outputs ------------------------------------


def digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


def _key(colors) -> str:
    return "".join(str(c) for c in sorted(colors))


def _graph_of(result):
    """`double` returns (graph, provenance) at this commit; accept a bare
    graph too."""
    return result[0] if isinstance(result, tuple) else result


def _render_graph(g) -> str:
    return gemkit.export_gem(_graph_of(g))


def _render_text(text) -> str:
    return text


def _render_cli(value) -> str:
    code, out = value
    return f"exit {code}\n{out}"


def _render_census(c) -> str:
    colors = range(c.dimension + 1)
    subsets = [s for k in range(1, c.dimension + 2)
               for s in itertools.combinations(colors, k)]
    pairs = list(itertools.combinations(range(c.dimension), 2))
    return _dump({
        "g": {_key(s): c.g_of(*s) for s in subsets},
        "g_dot": {_key(s): c.g_dot_of(*s) for s in subsets},
        "boundary_g": {_key(p): c.boundary_g_of(*p) for p in pairs},
        "component_boundary_g": [
            {_key(p): per_q[frozenset(p)] for p in pairs}
            for per_q in c.component_boundary_g
        ],
        "tally": [c.tally.total, c.tally.boundary, c.tally.internal],
    })


def _render_face_vector(fv) -> str:
    return _dump({"f": list(fv.f), "chi": fv.euler_characteristic})


def _render_validation(r) -> str:
    return _dump({k: getattr(r, k) for k in (
        "connected", "bipartite", "contracted", "closed", "h",
        "is_crystallization", "f0")})


def _render_boundary(bg) -> str:
    return _dump({
        "graph": None if bg.is_empty() else gemkit.export_gem(bg.graph),
        "parent_vertices": list(bg.parent_vertices),
        "components": [list(c) for c in bg.components],
    })


def _render_genus(p) -> str:
    return _dump({
        "rho": p.rho,
        "argmin": list(p.argmin),
        "entries": [[list(e.scheme), e.chi, e.holes, e.rho] for e in p.entries],
        "diagnostics": list(p.diagnostics),
    })


def _render_ledger(report) -> str:
    return _dump({
        "passed": report.passed,
        "checks": [
            [c.name, c.statement, c.left, c.right, c.relation, c.passed, c.sharp]
            for c in report.checks
        ],
        "skipped": [[s.name, s.reason] for s in report.skipped],
    })


def _render_meta(m) -> str:
    return _dump([m.h, m.chi, m.m, m.boundary_genus, m.double_rank])


def _render_minimality(r) -> str:
    return _dump({k: getattr(r, k) for k in (
        "complexity", "complexity_bound", "complexity_certified",
        "vertex_counts", "vertex_bounds", "vertex_bounds_attained", "rho",
        "genus_bound", "genus_bound_attained")})


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir / self.name

    def setup(self) -> list[Item]:
        raise NotImplementedError

    def run_item(self, run: ItemRun, item: Item) -> None:
        raise NotImplementedError

    def check(self, item: Item, run: ItemRun) -> list[str]:
        """Names of the steps whose output is wrong.  Called only on
        pipelines that ran to the end."""
        raise NotImplementedError

    def _write(self, filename: str, text: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / filename
        path.write_text(text, encoding="utf-8")
        return path


class CrystalPipeline(Workload):
    """Bounded 4-dimensional crystallizations from the paper's own
    constructions, each carried through the whole verdict path."""

    name = "crystal-pipeline"
    CHAINS = (2, 4, 7)
    SMOKE_CHAINS = (2,)
    CATALOG = ("d4_order2", "fig2_s3xI", "fig3_d3xs1", "fig4_boundary16")
    SMOKE_CATALOG = ("d4_order2", "fig3_d3xs1")
    PRODUCTS = ("s2xs1_8", "rp3_8")

    def setup(self) -> list[Item]:
        rng = random.Random(self.seed)
        items = []
        for name in self.SMOKE_CATALOG if self.smoke else self.CATALOG:
            entry = gemkit.catalog_get(name)
            meta = entry.meta
            items.append(Item(
                name, gemkit.export_gem(entry.graph),
                {"h": meta.h, "meta": {
                    "m": meta.m, "boundary_genus": meta.boundary_genus,
                    "double_rank": meta.double_rank}},
                anchor=True))
        for name in () if self.smoke else self.PRODUCTS:
            product = gemkit.interval_product(gemkit.catalog_get(name).graph)
            # M x [0,1] has the fundamental group of M: Z for S^2 x S^1 and
            # Z/2 for RP^3, both of rank 1
            items.append(Item(
                f"product-{name}", gemkit.export_gem(product),
                {"h": 2, "rho": 4, "meta": {"m": 1}}, anchor=True))
        fig3 = gemkit.catalog_get("fig3_d3xs1").graph
        fig3_internal = [v for v in fig3.vertices if fig3.mate(v, 4) is not None]
        for h in self.SMOKE_CHAINS if self.smoke else self.CHAINS:
            chain = fig3
            for _ in range(h - 1):
                internal = [v for v in chain.vertices
                            if chain.mate(v, 4) is not None]
                chain = gemkit.sphere_connector_sum(
                    chain, rng.choice(internal), fig3, rng.choice(fig3_internal))
            # h summands of D^3 x S^1: rank h, h boundary components of
            # genus 1 each, and the double is a sum of h copies of S^3 x S^1;
            # the regular genus meets the bound 2 chi + 3m + 2h - 4 = h
            items.append(Item(
                f"chain-h{h}", gemkit.export_gem(chain),
                {"h": h, "rho": h, "minimal": True, "meta": {
                    "m": h, "boundary_genus": h, "double_rank": h}}))
        for item in items:
            self._write(f"{item.id}.gem", item.text)
        return items

    def run_item(self, run: ItemRun, item: Item) -> None:
        g = run.step("parse_gem", None, gemkit.parse_gem, item.text)
        run.step("regular_genus", _render_genus, gemkit.regular_genus, g)
        run.step("verify_identities", _render_ledger, gemkit.verify_identities, g)
        meta = run.step("manifold_meta", _render_meta,
                        gemkit.ManifoldMeta.for_graph, g, **item.info["meta"])
        run.step("verify_bounds", _render_ledger, gemkit.verify_bounds, g, meta)
        run.step("certify_minimal", _render_minimality,
                 gemkit.certify_minimal, g, meta)
        run.step("crystallize_double", _render_graph, gemkit.crystallize_double, g)
        run.step("export_gem", _render_text, gemkit.export_gem, g)

    def check(self, item: Item, run: ItemRun) -> list[str]:
        wrong = []
        s = run.steps
        for name in ("verify_identities", "verify_bounds"):
            if not s[name].value.passed:
                wrong.append(name)
        if "rho" in item.info and s["regular_genus"].value.rho != item.info["rho"]:
            wrong.append("regular_genus")
        if item.info.get("minimal"):
            report = s["certify_minimal"].value
            if not (report.complexity_certified and report.genus_bound_attained):
                wrong.append("certify_minimal")
        # contracting the double cancels 4(h-1) + 1 dipoles of two vertices
        closed = oracle.Gem(_render_graph(s["crystallize_double"].value))
        n = oracle.read_gem(item.text)[1]
        h = item.info["h"]
        if not (closed.is_closed_crystallization()
                and closed.n == 2 * n - 2 * (4 * (h - 1) + 1)):
            wrong.append("crystallize_double")
        if s["export_gem"].value != item.text:
            wrong.append("export_gem")
        return wrong


class RandomKernel(Workload):
    """Seeded random bounded 4-gems with thousands of vertices: the
    per-vertex residue work inside `core`, plus constructions that build
    and export graphs."""

    name = "random-kernel"
    VERTICES = 6000
    SMOKE_VERTICES = 200
    BOUNDARY_FRACTIONS = (0.02, 0.2, 0.5)
    ORACLE_SUBSETS = 5

    def setup(self) -> list[Item]:
        rng = random.Random(self.seed)
        n = self.SMOKE_VERTICES if self.smoke else self.VERTICES
        items = []
        for fraction in self.BOUNDARY_FRACTIONS:
            boundary_pairs = max(1, round(fraction * n / 2))
            d, n, pairs = oracle.random_gem(n, n // 2 - boundary_pairs, rng)
            internal = sorted(v for edge in pairs[d] for v in edge)
            text = oracle.write_gem(d, n, pairs)
            items.append(Item(
                f"random-n{n}-b{fraction}", text,
                {"sum_at": (rng.choice(internal), rng.choice(internal)),
                 "check_seed": rng.getrandbits(32)}))
            self._write(f"{items[-1].id}.gem", text)
        return items

    def run_item(self, run: ItemRun, item: Item) -> None:
        g = run.step("parse_gem", None, gemkit.parse_gem, item.text)
        run.step("validate", _render_validation, gemkit.validate, g)
        run.step("census", _render_census, gemkit.census, g)
        run.step("face_vector", _render_face_vector, gemkit.face_vector, g)
        run.step("boundary_graph", _render_boundary, gemkit.boundary_graph, g)
        doubled = _graph_of(run.step("double", None, gemkit.double, g))
        run.step("double_census", _render_census, gemkit.census, doubled)
        v1, v2 = item.info["sum_at"]
        summed = run.step("connected_sum", None, gemkit.connected_sum, g, v1, g, v2)
        run.step("export_double", _render_text, gemkit.export_gem, doubled)
        run.step("export_sum", _render_text, gemkit.export_gem, summed)

    def check(self, item: Item, run: ItemRun) -> list[str]:
        wrong = []
        s = run.steps
        ref = oracle.Gem(item.text)
        d, n = ref.d, ref.n
        rng = random.Random(item.info["check_seed"])
        counts = s["census"].value
        subsets = [c for k in range(1, d + 2)
                   for c in itertools.combinations(range(d + 1), k)]
        sample = rng.sample(subsets, self.ORACLE_SUBSETS)
        if any(ref.components(b) != (counts.g_of(*b), counts.g_dot_of(*b))
               for b in sample):
            wrong.append("census")
        # residues avoiding the last color are regular: g[B] == gdot[B]
        elif any(counts.g_of(*b) != counts.g_dot_of(*b)
                 for b in subsets if d not in b):
            wrong.append("census")
        fv = s["face_vector"].value
        from_census = [
            sum(counts.g_of(*[c for c in range(d + 1) if c not in labels])
                if len(labels) <= d else n
                for labels in itertools.combinations(range(d + 1), k + 1))
            for k in range(d + 1)
        ]
        chi = sum((-1) ** k * f for k, f in enumerate(from_census))
        if list(fv.f) != from_census or fv.euler_characteristic != chi:
            wrong.append("face_vector")
        report = s["validate"].value
        if report.closed or report.connected != (
                ref.components(range(d + 1))[0] == 1):
            wrong.append("validate")
        bg = s["boundary_graph"].value
        boundary = [v for v in range(1, n + 1) if not ref.mates[d][v]]
        if list(bg.parent_vertices) != boundary or bg.graph.vertex_count != len(
                boundary):
            wrong.append("boundary_graph")
        # the double as documented: copy 2 shifted by n, twins joined by d
        _, _, pairs = oracle.read_gem(item.text)
        doubled = [p + [(a + n, b + n) for a, b in p] for p in pairs]
        doubled[d] += [(v, v + n) for v in boundary]
        doubled_text = oracle.write_gem(d, 2 * n, doubled)
        if s["export_double"].value != doubled_text:
            wrong.append("double")
        dcounts = s["double_census"].value
        ref_double = oracle.Gem(doubled_text)
        if any(ref_double.components(b) != (dcounts.g_of(*b), dcounts.g_dot_of(*b))
               for b in rng.sample(subsets, 2)) or any(
                dcounts.g_of(*t) != 2 * counts.g_of(*t)
                for t in itertools.combinations(range(d), 3)):
            wrong.append("double_census")
        summed = oracle.Gem(s["export_sum"].value)
        if summed.n != 2 * n - 2 or summed.components(range(d + 1))[0] != 1:
            wrong.append("connected_sum")
        return wrong


class CliCorpus(Workload):
    """Many small gems through the in-process CLI: fixed per-call overhead
    dominates, kernel work per gem is tiny."""

    name = "cli-corpus"
    GEMS = 150
    SMOKE_GEMS = 10
    COMMANDS = ("info", "genus", "verify")

    def setup(self) -> list[Item]:
        rng = random.Random(self.seed)
        items = []
        for name in gemkit.catalog_list():
            text = gemkit.export_gem(gemkit.catalog_get(name).graph)
            path = self._write(f"{name}.gem", text)
            items.append(Item(name, text, {"path": str(path)}, anchor=True))
        # the distribution of the `random_gems` strategy in the test suite,
        # 2p vertices for p in 1..5 and 0..p last-color edges, with p and
        # the edge count laid out evenly instead of drawn: every seed then
        # has the same mix of sizes and boundaries, and only the matchings
        # are random.  Pipelines on bounded crystallizations cost several
        # times the rest, and a drawn mix moves the median item between
        # the two groups from one seed to the next.
        for i in range(self.SMOKE_GEMS if self.smoke else self.GEMS):
            p = 1 + i % 5
            d, n, pairs = oracle.random_gem(2 * p, (i // 5) % (p + 1), rng)
            text = oracle.write_gem(d, n, pairs)
            path = self._write(f"random-{i:03d}.gem", text)
            items.append(Item(f"random-{i:03d}", text, {"path": str(path)}))
        return items

    def run_item(self, run: ItemRun, item: Item) -> None:
        for command in self.COMMANDS:
            run.cli(command, [command, item.info["path"], "--json"])

    def check(self, item: Item, run: ItemRun) -> list[str]:
        info = run.steps["info"]
        if info.outcome != "ok":
            return ["info"]
        code, out = info.value
        record = json.loads(out)
        ref = oracle.Gem(item.text)
        colors = range(ref.d + 1)
        f = ref.face_vector()
        boundary = ref.boundary_count()
        expected = {
            "vertices": ref.n,
            "boundary_vertices": boundary,
            "closed": boundary == 0,
            "connected": ref.components(colors)[0] == 1,
            "f_vector": f,
            "euler_characteristic": sum((-1) ** k * x for k, x in enumerate(f)),
            "pair_cycle_counts": {
                f"g_{i}{j}": ref.components((i, j))[0]
                for i, j in itertools.combinations(colors, 2)
            },
        }
        if code != 0 or any(record.get(k) != v for k, v in expected.items()):
            return ["info"]
        return []


WORKLOADS = {w.name: w for w in (CrystalPipeline, RandomKernel, CliCorpus)}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))
