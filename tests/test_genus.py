"""Regular genus, gem-complexity, bounds and recognition."""

import collections
import functools
import gc
import itertools
import random
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gemkit.genus
from gemkit import (
    ColoredGraph,
    GemError,
    ManifoldMeta,
    boundary_genus_cap,
    catalog_get,
    certify_minimal,
    complexity_lower_bounds,
    enumerate_schemes,
    export_gem,
    gem_complexity,
    genus_lower_bounds,
    interval_product,
    parse_gem,
    rank_upper_bound,
    regular_genus,
    rho_epsilon,
    rho_epsilon_census,
    rho_epsilon_via_double,
    sphere_connector_sum,
    verify_bounds,
    vertex_lower_bounds,
    weak_semi_simple,
)
from gemkit.genus import MAX_SCHEME_DIMENSION
from oracles import weak_semi_simple_reference


@functools.cache
def _minimality_gems():
    """The bounded catalog crystallizations, both interval products and
    the sphere-connector chains of fig3_d3xs1 with h = 2..4, by name."""
    gems = {
        name: catalog_get(name).graph
        for name in ("d4_order2", "fig2_s3xI", "fig3_d3xs1",
                     "fig4_boundary16")
    }
    for name in ("s2xs1_8", "rp3_8"):
        gems[f"product-{name}"] = interval_product(catalog_get(name).graph)
    fig3 = gems["fig3_d3xs1"]
    chain = fig3
    for h in (2, 3, 4):
        internal = next(v for v in chain.vertices if chain.mate(v, 4))
        chain = sphere_connector_sum(chain, internal, fig3, 1)
        gems[f"chain-h{h}"] = chain
    return gems


class TestSchemes:
    def test_twelve_schemes_for_dimension_four(self):
        schemes = enumerate_schemes(4)
        assert len(schemes) == 12
        assert all(s[-1] == 4 for s in schemes)
        assert len(set(schemes)) == 12

    def test_three_schemes_for_dimension_three(self):
        assert len(enumerate_schemes(3)) == 3

    @pytest.mark.parametrize("d", range(2, 8))
    def test_schemes_are_the_sorted_reversal_canonical_orderings(self, d):
        # every ordering of 0..d-1 read in its smaller direction
        canonical = {
            min(head, head[::-1]) + (d,)
            for head in itertools.permutations(range(d))
        }
        assert enumerate_schemes(d) == sorted(canonical)

    def test_bad_scheme_rejected(self, fig2):
        # entries that are not ints give the same error, not a TypeError
        for scheme in [(0, 1, 2, 4, 3), ("a", 1, 2, 3, 4), (0.0, 1, 2, 3, 4)]:
            with pytest.raises(GemError, match="not a color cycle"):
                rho_epsilon(fig2, scheme)

    def test_scheme_tables_of_one_dimension_share_one_scheme_tuple(
        self, monkeypatch
    ):
        """The schemes of a dimension are listed once, not once per gem,
        and `enumerate_schemes` still returns a fresh list."""
        calls = []
        real = gemkit.genus.enumerate_schemes

        def counted(d):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(gemkit.genus, "enumerate_schemes", counted)
        gemkit.genus._schemes.cache_clear()
        gems = [
            parse_gem(export_gem(catalog_get(name).graph))
            for name in ("fig2_s3xI", "fig4_boundary16")
        ]
        tables = [gemkit.genus._scheme_table(g) for g in gems]
        assert calls == [4]
        shared = gemkit.genus._schemes(4)
        for table in tables:
            assert all(
                row[0].scheme is scheme for row, scheme in zip(table, shared)
            )
        monkeypatch.undo()
        fresh = enumerate_schemes(4)
        assert fresh == list(shared) and fresh is not enumerate_schemes(4)
        fresh.clear()
        assert len(gemkit.genus._schemes(4)) == 12

    def test_dimension_over_the_scheme_cap_rejected(self):
        assert MAX_SCHEME_DIMENSION == 9
        with pytest.raises(
            GemError, match=r"dimension 10 .* 1814400 schemes \(d!/2\)"
        ):
            enumerate_schemes(10)


class TestReversalInvariance:
    def test_all_24_orderings_on_catalog(self, all_entries):
        # rho depends only on the cyclic adjacency structure, so every
        # raw ordering must agree with its reversal
        for entry in all_entries:
            g = entry.graph
            if g.dimension != 4:
                continue
            for head in itertools.permutations(range(4)):
                forward = rho_epsilon(g, head + (4,)).rho
                backward = rho_epsilon(g, head[::-1] + (4,)).rho
                assert forward == backward


class TestGenusValues:
    def test_fig2_rho_zero_all_formulas(self, fig2):
        profile = regular_genus(fig2)
        assert profile.rho == 0
        assert all(e.rho == 0 for e in profile.entries)
        for scheme in enumerate_schemes(4):
            assert rho_epsilon_via_double(fig2, scheme) == 0
            assert rho_epsilon_census(fig2, scheme) == 0

    def test_fig3_rho_one_all_schemes(self, fig3):
        profile = regular_genus(fig3)
        assert profile.rho == 1
        assert all(e.rho == 1 for e in profile.entries)

    def test_fig4_rho_three(self, fig4):
        assert regular_genus(fig4).rho == 3

    def test_s2xs1_and_rp3_genus_one(self, s2xs1, rp3):
        assert regular_genus(s2xs1).rho == 1
        assert regular_genus(rp3).rho == 1

    def test_spheres_genus_zero(self):
        for name in ("s3_order2", "s4_order2"):
            assert regular_genus(catalog_get(name).graph).rho == 0

    def test_product_genus_four(self, product_s2xs1, product_rp3):
        assert regular_genus(product_s2xs1).rho == 4
        assert regular_genus(product_rp3).rho == 4

    def test_genus_profile_deterministic(self, fig4):
        first = regular_genus(fig4)
        second = regular_genus(fig4)
        assert first == second

    def test_scheme_table_keeps_nothing_per_scheme(self):
        """Once a gem of dimension 8 and its 20 160-row genus profile
        are gone, less than 1 MB stays: the dimension's key table and
        census plan, and no key row of any scheme."""
        g = ColoredGraph(8, 2, [[(1, 2)]] * 8 + [[]])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            profile = regular_genus(g)
            assert len(profile.entries) == 20160
            del g, profile
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000

    @pytest.mark.parametrize("name", ["fig3_d3xs1", "fig4_boundary16"])
    def test_each_formula_reads_its_own_census_sets(self, monkeypatch, name):
        """Each single-scheme function reads exactly the census sets of
        its formula, from the census the formula names: the embedding
        surface g_dot of the cycle's pairs and the boundary count of the
        hole pair; the double formula the double's g at the triples of
        distance-two steps and the input's boundary count of the hole
        pair; the census formula the input's own g and g_dot triples."""
        g = parse_gem(export_gem(catalog_get(name).graph))
        reads = collections.Counter()
        real_census = gemkit.genus.census

        class Recorded(Mapping):
            def __init__(self, mapping, source):
                self._mapping, self._source = mapping, source

            def __getitem__(self, key):
                reads[self._source, key] += 1
                return self._mapping[key]

            def get(self, key, default=None):
                reads[self._source, key] += 1
                return self._mapping.get(key, default)

            def __iter__(self):
                return iter(self._mapping)

            def __len__(self):
                return len(self._mapping)

        def recording_census(graph):
            of = "g" if graph is g else "double"
            counts = real_census(graph)
            return counts._replace(
                g=Recorded(counts.g, (of, "g")),
                g_dot=Recorded(counts.g_dot, (of, "g_dot")),
                boundary_g=Recorded(counts.boundary_g, (of, "boundary_g")),
            )

        monkeypatch.setattr(gemkit.genus, "census", recording_census)

        def read_by(call, scheme):
            reads.clear()
            call(g, scheme)
            return reads

        for e in enumerate_schemes(4):
            hole = (("g", "boundary_g"), frozenset((e[0], e[3])))
            cycle_pairs = [frozenset((e[i - 1], e[i])) for i in range(5)]
            assert read_by(rho_epsilon, e) == collections.Counter(
                [(("g", "g_dot"), pair) for pair in cycle_pairs] + [hole]
            )
            steps = [
                frozenset((e[i], e[(i + 2) % 5], e[(i + 4) % 5]))
                for i in range(5)
            ]
            assert read_by(rho_epsilon_via_double, e) == collections.Counter(
                [(("double", "g"), triple) for triple in steps] + [hole]
            )
            g_triples = [(0, 1, 3), (0, 2, 3), (1, 3, 4)]
            g_dot_triples = [(0, 2, 4), (1, 2, 4)]
            assert read_by(rho_epsilon_census, e) == collections.Counter(
                [(("g", "g"), frozenset(e[i] for i in t)) for t in g_triples]
                + [(("g", "g_dot"), frozenset(e[i] for i in t))
                   for t in g_dot_triples]
            )


class TestComplexityAndBounds:
    def test_gem_complexity_values(self, fig2, fig3, fig4):
        assert gem_complexity(fig2) == 4
        assert gem_complexity(fig3) == 4
        assert gem_complexity(fig4) == 7

    def test_gem_complexity_needs_crystallization(self, fig1):
        with pytest.raises(GemError):
            gem_complexity(fig1)

    def test_complexity_bounds(self):
        assert complexity_lower_bounds(ManifoldMeta(h=2, chi=0, m=0))[0] == 4
        assert complexity_lower_bounds(ManifoldMeta(h=1, chi=0, m=1))[0] == 4
        assert complexity_lower_bounds(ManifoldMeta(h=1, chi=1, m=1))[0] == 7
        assert complexity_lower_bounds(ManifoldMeta(h=2, chi=-2, m=2))[0] == 12
        first, second = complexity_lower_bounds(
            ManifoldMeta(h=2, chi=0, m=0), k_boundary=0
        )
        assert second == 3

    def test_vertex_bounds_fig4_all_sharp(self, fig4):
        bounds = vertex_lower_bounds(ManifoldMeta(h=1, chi=1, m=1))
        assert bounds == (16, 24, 8)
        tally = fig4.vertex_tally()
        assert (
            tally.total,
            tally.total + tally.boundary,
            tally.total - tally.boundary,
        ) == bounds

    def test_genus_bounds(self):
        assert genus_lower_bounds(ManifoldMeta(h=1, chi=0, m=1))[1] == 1
        assert genus_lower_bounds(ManifoldMeta(h=1, chi=1, m=1))[1] == 3
        assert genus_lower_bounds(ManifoldMeta(h=2, chi=-2, m=2))[1] == 2
        first, second, third = genus_lower_bounds(
            ManifoldMeta(h=2, chi=0, m=1, boundary_genus=2, double_rank=1)
        )
        assert first == 0
        assert third == 4

    @pytest.mark.parametrize("field", ["m", "boundary_genus", "double_rank"])
    def test_negative_metadata_rejected(self, fig3, field):
        values = {"m": 1, field: -2}
        message = f"^{field} must be nonnegative, got -2$"
        with pytest.raises(GemError, match=message):
            ManifoldMeta.for_graph(fig3, **values)

    @pytest.mark.parametrize(
        "bound",
        [complexity_lower_bounds, vertex_lower_bounds, genus_lower_bounds],
    )
    def test_bounds_reject_negative_metadata(self, bound):
        with pytest.raises(GemError, match="^m must be nonnegative, got -2$"):
            bound(ManifoldMeta(h=1, chi=0, m=-2))

    @pytest.mark.parametrize(
        "bound",
        [
            complexity_lower_bounds,
            vertex_lower_bounds,
            genus_lower_bounds,
            pytest.param(
                functools.partial(
                    weak_semi_simple, catalog_get("fig3_d3xs1").graph
                ),
                id="weak_semi_simple",
            ),
        ],
    )
    def test_bounds_reject_missing_rank(self, bound):
        # fig3 has h = 1 and chi = 0
        message = "^this bound needs the rank m in meta$"
        with pytest.raises(GemError, match=message):
            bound(ManifoldMeta(h=1, chi=0, m=None))

    def test_negative_boundary_complexity_rejected(self):
        meta = ManifoldMeta(h=1, chi=0, m=1)
        message = "^k_boundary must be nonnegative, got -5$"
        with pytest.raises(GemError, match=message):
            complexity_lower_bounds(meta, k_boundary=-5)
        assert complexity_lower_bounds(meta, k_boundary=0) == (4, 1)

    def test_bounds_reject_closed_meta(self):
        with pytest.raises(GemError, match="boundary"):
            vertex_lower_bounds(ManifoldMeta(h=0, chi=2, m=0))

    def test_rank_upper_bound(self, fig2, fig3, fig4):
        assert rank_upper_bound(fig2) >= 0
        assert rank_upper_bound(fig3) >= 1
        assert rank_upper_bound(fig4) >= 1

    def test_boundary_genus_cap(self, fig2, fig3):
        # boundary of fig2 is two 3-spheres (summed genus 0); boundary of
        # fig3 is one genus-1 3-manifold
        assert boundary_genus_cap(fig2) == 0
        assert boundary_genus_cap(fig3) == 1

    def test_boundary_genus_cap_needs_boundary(self, fig1):
        with pytest.raises(GemError):
            boundary_genus_cap(fig1)


class TestRecognition:
    def test_fig2_weak_semi_simple_both_types(self, fig2):
        meta = ManifoldMeta.for_graph(fig2, m=0, boundary_genus=0)
        report = weak_semi_simple(fig2, meta)
        assert report.type_one is True
        assert report.type_two is True

    def test_fig4_type_two(self, fig4):
        meta = ManifoldMeta.for_graph(fig4, m=1)
        report = weak_semi_simple(fig4, meta)
        assert report.type_two is True
        assert report.type_one is None  # boundary genus not supplied

    def test_matches_per_relabeling_reference(self, all_entries):
        gems = {
            e.name: e.graph
            for e in all_entries
            if e.graph.dimension == 4 and not e.graph.is_closed()
        }
        for name in ("s2xs1_8", "rp3_8", "s3_order2"):
            gems[f"product-{name}"] = interval_product(catalog_get(name).graph)
        fig3 = catalog_get("fig3_d3xs1").graph
        rng = random.Random(7)
        chain = fig3
        for h in (2, 3, 4):
            internal = [v for v in chain.vertices if chain.mate(v, 4)]
            chain = sphere_connector_sum(chain, rng.choice(internal), fig3, 1)
            gems[f"chain-h{h}"] = chain
        seen = set()
        for name, g in gems.items():
            for m in range(5):
                for boundary_genus in (None, 0, 1, 2, 4):
                    meta = ManifoldMeta.for_graph(
                        g, m=m, boundary_genus=boundary_genus
                    )
                    report = weak_semi_simple(g, meta)
                    verdicts = (report.type_one, report.type_two)
                    assert verdicts == weak_semi_simple_reference(
                        g, m, boundary_genus
                    ), (name, m, boundary_genus)
                    seen.add(verdicts)
        # both types are seen true and false, type I also undecided, and
        # the interval products are type I without being type II
        assert {(True, True), (True, False), (False, True), (False, False),
                (None, True), (None, False)} <= seen

    def test_certify_minimal(self, fig2, fig3, fig4):
        cases = [
            (fig2, ManifoldMeta.for_graph(fig2, m=0)),
            (fig3, ManifoldMeta.for_graph(fig3, m=1)),
            (fig4, ManifoldMeta.for_graph(fig4, m=1)),
        ]
        for g, meta in cases:
            report = certify_minimal(g, meta)
            assert report.complexity_certified
            assert report.genus_bound_attained

    def test_connector_sum_minimal(self, connector_sum_fig3):
        meta = ManifoldMeta.for_graph(connector_sum_fig3, m=2)
        report = certify_minimal(connector_sum_fig3, meta)
        assert report.complexity == 12
        assert report.complexity_certified
        assert report.rho == 2
        assert report.genus_bound_attained

    def test_interval_products_attain_no_bound(
        self, product_s2xs1, product_rp3
    ):
        # every other certify case is sharp, where attained and bound
        # could be swapped unseen
        for g in (product_s2xs1, product_rp3):
            report = certify_minimal(g, ManifoldMeta.for_graph(g, m=1))
            assert report == (
                19, 11, False,
                (40, 56, 24), (24, 34, 14), (False, False, False),
                4, 3, False,
            )

    @given(
        name=st.sampled_from(sorted(_minimality_gems())),
        m=st.integers(0, 4),
        boundary_genus=st.one_of(st.none(), st.integers(0, 3)),
        double_rank=st.one_of(st.none(), st.integers(0, 4)),
        k_boundary=st.one_of(st.none(), st.integers(0, 20)),
    )
    @settings(max_examples=150, deadline=None)
    def test_certify_minimal_projects_the_bounds_ledger(
        self, name, m, boundary_genus, double_rank, k_boundary
    ):
        g = _minimality_gems()[name]
        meta = ManifoldMeta.for_graph(
            g, m=m, boundary_genus=boundary_genus, double_rank=double_rank
        )
        report = certify_minimal(g, meta)
        checks = verify_bounds(g, meta, k_boundary=k_boundary).checks
        vertex = [c for c in checks if c.name == "vertex-floor"]
        complexity = next(c for c in checks if c.name == "complexity-floor")
        genus = next(
            c for c in checks
            if c.statement == "rho >= 2 chi + 3m + 2h - 4"
        )
        assert report == (
            complexity.left, complexity.right, complexity.sharp,
            tuple(c.left for c in vertex), tuple(c.right for c in vertex),
            tuple(c.sharp for c in vertex),
            genus.left, genus.right, genus.sharp,
        )


class TestCrossFormulaAgreement:
    def test_three_formulas_agree_on_bounded_crystallizations(
        self, fig2, fig3, fig4, connector_sum_fig3
    ):
        for g in (fig2, fig3, fig4, connector_sum_fig3):
            for scheme in enumerate_schemes(4):
                embedding = rho_epsilon(g, scheme).rho
                assert embedding == rho_epsilon_via_double(g, scheme)
                assert embedding == rho_epsilon_census(g, scheme)

    def test_rho_is_exact_fraction(self, fig3):
        value = rho_epsilon(fig3, (0, 1, 2, 3, 4)).rho
        assert isinstance(value, Fraction)
