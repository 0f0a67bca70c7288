"""Identity and bound harness: catalog sweep plus negative controls."""

import ast
import collections
import itertools
import operator
import re
from collections.abc import Mapping

import pytest
from hypothesis import given, settings

import gemkit.core
import gemkit.verify
from gemkit import (
    ColoredGraph,
    GemError,
    ManifoldMeta,
    catalog_get,
    export_gem,
    parse_gem,
    verify_bounds,
    verify_identities,
)
from gemkit.verify import _CLOSED_SKIPS, _NOT_CRYSTAL_SKIPS
from oracles import verify_identities_reference
from test_properties import random_gems


def _typed(value):
    """`value` with the type of each of its parts, tuples taken apart: a
    bool, an int and a Fraction of one value compare equal, these do
    not."""
    if type(value) is tuple:
        return tuple, tuple(map(_typed, value))
    return type(value), value


def assert_ledger_matches_reference(g):
    """`verify_identities(g)` is the accessor-based reference ledger,
    Check by Check, with the type of every part of each field."""
    report, expected = verify_identities(g), verify_identities_reference(g)
    assert report.skipped == expected.skipped
    assert len(report.checks) == len(expected.checks)
    for check, reference in zip(report.checks, expected.checks):
        assert _typed(tuple(check)) == _typed(tuple(reference))


def _traced(op):
    def apply(self, other):
        reads = self.reads + getattr(other, "reads", ())
        return _Read(op(int(self), int(other)), reads)

    return apply


class _Read(int):
    """A census count that keeps the (census, mapping, key) reads it was
    computed from, through sums, differences and products."""

    def __new__(cls, value, reads):
        read = super().__new__(cls, value)
        read.reads = reads
        return read

    __add__ = __radd__ = _traced(operator.add)
    __mul__ = __rmul__ = _traced(operator.mul)
    __sub__ = _traced(operator.sub)
    __rsub__ = _traced(lambda a, b: b - a)


class _Recorded(Mapping):
    """A census mapping whose every value is a `_Read` of itself."""

    def __init__(self, mapping, source):
        self._mapping, self._source = mapping, source

    def __getitem__(self, key):
        return _Read(self._mapping[key], ((*self._source, key),))

    def __iter__(self):
        return iter(self._mapping)

    def __len__(self):
        return len(self._mapping)


def _swap_one_pair(g: ColoredGraph, color: int = 0) -> ColoredGraph:
    """Cross two edges of one color: a-b, c-d become a-c, b-d."""
    pairs = [list(g.edges(c)) for c in g.colors]
    (a, b), (c, d) = pairs[color][0], pairs[color][1]
    pairs[color][0], pairs[color][1] = (a, c), (b, d)
    return ColoredGraph(g.dimension, g.vertex_count, pairs)


class TestIdentities:
    def test_all_4d_catalog_entries_pass(self, all_entries):
        for entry in all_entries:
            if entry.graph.dimension != 4:
                continue
            report = verify_identities(entry.graph)
            assert report.passed, (entry.name, report.failures())

    def test_closed_entries_skip_boundary_families(self):
        report = verify_identities(catalog_get("s4_order2").graph)
        skipped = {s.name for s in report.skipped}
        assert "boundary-census-split" in skipped
        assert "double-census" in skipped
        assert any(c.name == "closed-triple-relation" for c in report.checks)

    def test_construction_outputs_pass(
        self, product_s2xs1, product_rp3, connector_sum_fig3,
        crystallized_double_fig3,
    ):
        for g in (
            product_s2xs1,
            product_rp3,
            connector_sum_fig3,
            crystallized_double_fig3,
        ):
            assert verify_identities(g).passed

    def test_negative_control_corrupted_fig2(self, fig2):
        corrupted = _swap_one_pair(fig2)
        report = verify_identities(corrupted)
        assert not report.passed
        assert report.failures()

    def test_negative_control_after_warm_memo(self, fig2):
        # the original's memoized analyses must not leak into corrupted
        # graphs built from it
        original = parse_gem(export_gem(fig2))
        assert verify_identities(original).passed
        for color in range(5):
            if len(original.edges(color)) < 2:
                continue
            corrupted = _swap_one_pair(original, color)
            assert corrupted != original
            assert not verify_identities(corrupted).passed, color

    def test_negative_control_every_color(self, fig2):
        # corruption in any single color must be caught
        for color in range(5):
            if len(fig2.edges(color)) < 2:
                continue
            corrupted = _swap_one_pair(fig2, color)
            assert not verify_identities(corrupted).passed, color

    def test_negative_control_boundary_paths_sharing_a_label(
        self, monkeypatch
    ):
        """gdot of a pair {i, 4} counts the labels free of boundary
        vertices, never g - p_bar: a walk that gives two boundary paths
        one label lowers g_i4 by one and leaves gdot_i4, so every
        facet-count-split check fails."""
        original = gemkit.core._pair_labels
        merged = []

        def sharing(first, second, ends):
            labels, starts = original(first, second, ends)
            if not ends:
                return labels, starts
            # labels 1 and 2 are the first two paths; 2 joins 1
            assert len(starts) >= 2 and starts[1] in ends
            merged.append(starts.pop(1))
            return [x - (x >= 2) for x in labels], starts

        monkeypatch.setattr(gemkit.core, "_pair_labels", sharing)
        g = parse_gem(export_gem(catalog_get("fig3_d3xs1").graph))
        report = verify_identities(g)
        assert len(merged) == 4
        split = [c for c in report.checks if c.name == "facet-count-split"]
        assert len(split) == 4
        for check in split:
            assert not check.passed
            assert check.left == check.right - 1

    @pytest.mark.parametrize("name", ["fig3_d3xs1", "fig4_boundary16"])
    def test_double_census_reads_each_side_from_its_own_census(
        self, monkeypatch, name
    ):
        """Each double-census check reads its color set S once from the
        double's census on the left, g'_S, and from the input's census on
        the right: g_S without the last color, g_S and gdot_S with it."""
        g = catalog_get(name).graph
        real_census = gemkit.verify.census

        def recording_census(graph):
            of = "g" if graph is g else "double"
            counts = real_census(graph)
            return counts._replace(
                g=_Recorded(counts.g, (of, "g")),
                g_dot=_Recorded(counts.g_dot, (of, "g_dot")),
                boundary_g=_Recorded(counts.boundary_g, (of, "boundary_g")),
            )

        monkeypatch.setattr(gemkit.verify, "census", recording_census)
        family = [
            c for c in verify_identities(g).checks if c.name == "double-census"
        ]
        sets = [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
            (0, 1, 4), (0, 1), (0, 2, 4), (0, 2), (0, 3, 4), (0, 3),
            (1, 2, 4), (1, 2), (1, 3, 4), (1, 3), (2, 3, 4), (2, 3),
            (0, 4), (1, 4), (2, 4), (3, 4),
        ]
        expected = []
        for colors in sets:
            key = frozenset(colors)
            right = (("g", "g", key),)
            if 4 in colors:
                right += (("g", "g_dot", key),)
            expected.append(((("double", "g", key),), right))
        assert [(c.left.reads, c.right.reads) for c in family] == expected
        assert all(c.passed for c in family)

    @pytest.mark.parametrize("name", [
        "fig1_s4", "s4_order2", "fig2_s3xI", "fig3_d3xs1", "fig4_boundary16",
        "bounded-4-not-crystal",
    ])
    def test_every_family_reads_each_side_from_its_own_census(
        self, monkeypatch, name
    ):
        """Each side of every check of the closed, the bounded
        non-crystallization and the bounded crystallization ledgers
        reads exactly the census sets that its half of the statement
        names, each once, from the census it names: g, gdot and bd_g
        the input's (bd_g of "component q" its q-th boundary
        component's), g' the double's; "sum g_ijk" names every color
        triple, "sum bd_g_ij" every pair below the last color, and the
        closed embedding reduction's "cycle sum" the gdot of the
        scheme's cyclically adjacent pairs.  The genus-formula rows read
        the shared scheme table, no census of the ledger."""
        if name == "bounded-4-not-crystal":
            g = ColoredGraph(4, 4, [[(1, 2), (3, 4)]] * 4 + [[]])
        else:
            g = catalog_get(name).graph
        real_census = gemkit.verify.census

        def recording_census(graph):
            of = "g" if graph is g else "double"
            counts = real_census(graph)
            return counts._replace(
                g=_Recorded(counts.g, (of, "g")),
                g_dot=_Recorded(counts.g_dot, (of, "g_dot")),
                boundary_g=_Recorded(counts.boundary_g, (of, "boundary_g")),
                component_boundary_g=tuple(
                    _Recorded(per_q, (of, "component_boundary_g", q))
                    for q, per_q in enumerate(counts.component_boundary_g)
                ),
            )

        monkeypatch.setattr(gemkit.verify, "census", recording_census)
        sums = {
            "ijk": list(itertools.combinations(range(5), 3)),
            "ij": list(itertools.combinations(range(4), 2)),
        }

        def named(text, component):
            sources = {
                "g": ("g", "g"), "gdot": ("g", "g_dot"), "g'": ("double", "g"),
                "bd_g": ("g", "boundary_g") if component is None
                else ("g", "component_boundary_g", component),
            }
            return collections.Counter(
                (*sources[census_name], frozenset(colors))
                for census_name, s in re.findall(
                    r"\b(bd_g|gdot|g'|g)_(\w+)", text
                )
                for colors in (sums[s] if s in sums else [map(int, s)])
            )

        def recorded(value):
            parts = value if type(value) is tuple else (value,)
            return collections.Counter(
                read for part in parts for read in getattr(part, "reads", ())
            )

        report = verify_identities(g)
        assert report.checks
        for check in report.checks:
            prefix, _, body = check.statement.rpartition(": ")
            left, right = (recorded(check.left), recorded(check.right))
            if check.name == "genus-formula-agreement":
                assert (left, right) == ({}, {}), check
                continue
            component = (
                int(prefix.split()[1]) if prefix.startswith("component")
                else None
            )
            left_text, right_text = re.split(r" [=>]= ", body, maxsplit=1)
            expected_right = named(right_text, component)
            if check.name == "closed-embedding-reduction":
                scheme = ast.literal_eval(prefix.removeprefix("scheme "))
                expected_right = collections.Counter(
                    ("g", "g_dot", frozenset((scheme[i - 1], scheme[i])))
                    for i in range(5)
                )
            assert (left, right) == (
                named(left_text, component), expected_right
            ), check

    def test_ledger_matches_reference(
        self, all_entries, product_s2xs1, product_rp3
    ):
        gems = [e.graph for e in all_entries if e.graph.dimension == 4]
        for g in (*gems, product_s2xs1, product_rp3):
            assert_ledger_matches_reference(g)

    @given(random_gems())
    @settings(max_examples=150, deadline=None)
    def test_ledger_matches_reference_on_random_gems(self, g):
        """Random 4-gems: closed or bounded, crystallizations or not,
        mostly no manifold gems."""
        assert_ledger_matches_reference(g)

    def test_skip_tuples_mirror_the_families(self, fig3):
        """Every skipped family is one that a bounded crystallization's
        ledger emits, and a closed gem skips each of those families but
        the crystallization-structure check and the triple relation."""
        emitted = {c.name for c in verify_identities(fig3).checks}
        closed = {s.name for s in _CLOSED_SKIPS}
        not_crystal = {s.name for s in _NOT_CRYSTAL_SKIPS}
        assert closed | not_crystal <= emitted
        assert closed == emitted - {
            "crystallization-structure", "closed-triple-relation"
        }

    def test_report_deterministic(self, fig3):
        assert verify_identities(fig3) == verify_identities(fig3)

    def test_wrong_dimension_rejected(self, s2xs1):
        with pytest.raises(GemError, match="dimension 4"):
            verify_identities(s2xs1)

    def test_fig3_interior_cycle_floor_is_tight_at_zero(self, fig3):
        report = verify_identities(fig3)
        floors = [c for c in report.checks if c.name == "interior-cycle-floor"]
        assert floors
        for check in floors:
            assert check.left == 0 and check.right == 0 and check.passed


class TestBounds:
    def test_catalog_bounds_pass(self, all_entries):
        for entry in all_entries:
            if entry.meta is None or entry.graph.dimension != 4:
                continue
            report = verify_bounds(entry.graph, entry.meta)
            assert report.passed, (entry.name, report.failures())

    def test_fig2_vertex_bounds_sharp(self, fig2):
        meta = ManifoldMeta.for_graph(fig2, m=0, boundary_genus=0,
                                      double_rank=0)
        report = verify_bounds(fig2, meta)
        assert report.passed
        sharp = [c.statement for c in report.checks if c.sharp]
        assert "2p >= bound" in sharp
        assert "2p + 2p_bar >= bound" in sharp

    def test_fig4_vertex_bounds_all_sharp(self, fig4):
        meta = ManifoldMeta.for_graph(fig4, m=1)
        report = verify_bounds(fig4, meta)
        vertex_checks = [c for c in report.checks if c.name == "vertex-floor"]
        assert len(vertex_checks) == 3
        assert all(c.sharp for c in vertex_checks)

    def test_missing_optional_meta_is_skipped_not_failed(self, fig4):
        meta = ManifoldMeta.for_graph(fig4, m=1)
        report = verify_bounds(fig4, meta)
        skipped = {s.name for s in report.skipped}
        assert "genus-floor-via-double-rank" in skipped
        assert "genus-floor-with-boundary" in skipped
        assert report.passed

    def test_closed_input_rejected(self, fig1):
        with pytest.raises(GemError):
            verify_bounds(fig1, ManifoldMeta(h=0, chi=2, m=0))

    def test_connector_sum_complexity_sharp(self, connector_sum_fig3):
        meta = ManifoldMeta.for_graph(connector_sum_fig3, m=2)
        report = verify_bounds(connector_sum_fig3, meta)
        assert report.passed
        complexity = [
            c for c in report.checks
            if c.name == "complexity-floor"
        ]
        assert complexity and complexity[0].sharp
