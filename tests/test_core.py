"""Core model: construction validation, residues, censuses, face vectors."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import gemkit.core
import gemkit.genus
from gemkit import (
    ColoredGraph,
    GemError,
    ManifoldMeta,
    boundary_graph,
    catalog_get,
    census,
    certify_minimal,
    double,
    export_gem,
    face_vector,
    load_gem,
    parse_gem,
    regular_genus,
    residue_components,
    rho_epsilon,
    rho_epsilon_census,
    rho_epsilon_via_double,
    sphere_connector_sum,
    validate,
    verify_bounds,
    verify_identities,
)
from oracles import (
    bfs_component_count,
    bfs_components,
    bfs_is_bipartite,
    bfs_regular_component_count,
    census_join_takes,
    oracle_euler_characteristic,
    oracle_face_vector,
)
from test_properties import _matching


class TestConstructionErrors:
    def test_incomplete_matching_rejected(self):
        with pytest.raises(GemError, match="not a total pairing"):
            ColoredGraph(1, 4, [[(1, 2)], []])

    def test_vertex_count_checked_before_allocating(self):
        # a mate array for 10**6 vertices alone takes 8 MB
        tracemalloc.start()
        try:
            with pytest.raises(GemError, match="not a total pairing"):
                ColoredGraph(4, 10**6, [[(1, 2)]] * 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_dimension_capped_before_allocating(self):
        limit = gemkit.core.MAX_DIMENSION
        with pytest.raises(GemError, match=f"supported maximum {limit}"):
            ColoredGraph(limit + 1, 2, [[(1, 2)]] * (limit + 2))
        assert ColoredGraph(limit, 2, [[(1, 2)]] * (limit + 1))

    def test_dimension_zero_rejected(self):
        with pytest.raises(
            GemError, match="^dimension must be a positive integer$"
        ):
            ColoredGraph(0, 2, [[(1, 2)]])

    def test_loop_rejected(self):
        with pytest.raises(GemError, match="loop"):
            ColoredGraph(1, 2, [[(1, 1)], []])

    def test_double_pairing_rejected(self):
        with pytest.raises(GemError, match="paired more than once"):
            ColoredGraph(1, 4, [[(1, 2), (2, 3)], []])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(GemError, match="out of range"):
            ColoredGraph(1, 2, [[(1, 3)], []])

    def test_wrong_color_count_rejected(self):
        with pytest.raises(GemError, match="expected 3 colors"):
            ColoredGraph(2, 2, [[(1, 2)], [(1, 2)]])

    def test_immutable(self):
        g = ColoredGraph(1, 2, [[(1, 2)], []])
        with pytest.raises(AttributeError):
            g.dimension = 3


class TestBasicAccessors:
    def test_order_two_closed(self):
        g = ColoredGraph(4, 2, [[(1, 2)]] * 5)
        assert g.is_closed()
        assert g.mate(1, 3) == 2
        assert g.degree(1) == 5
        assert g.vertex_tally().p == 1

    def test_boundary_vertices(self, fig2):
        assert fig2.boundary_vertices() == [1, 2, 3, 10]
        assert fig2.vertex_tally().boundary == 4
        assert fig2.vertex_tally().p_bar == 2

    def test_boundary_vertices_is_a_fresh_list(self):
        # the census keeps one boundary tuple per graph; the public list
        # is a copy, so changing it changes nothing the census reads
        g = _fresh("fig2_s3xI")
        census(g)
        listed = g.boundary_vertices()
        listed.clear()
        assert g.boundary_vertices() == [1, 2, 3, 10]
        assert boundary_graph(g).parent_vertices == (1, 2, 3, 10)
        assert g.vertex_tally().boundary == 4

    def test_edges_sorted_canonical(self, fig3):
        for c in fig3.colors:
            edges = fig3.edges(c)
            assert edges == sorted(edges)
            assert all(a < b for a, b in edges)

    @pytest.mark.parametrize("vertex", [0, -1, 11, 1.0, True])
    def test_mate_refuses_a_vertex_out_of_range(self, fig3, vertex):
        # fig3 has 10 vertices; mate(-1, 0) once answered for vertex 10
        with pytest.raises(
            GemError, match=rf"^vertex {vertex} out of range 1\.\.10$"
        ):
            fig3.mate(vertex, 0)

    @pytest.mark.parametrize("color", [-1, 5, 1.0, True])
    def test_mate_refuses_a_color_out_of_range(self, fig3, color):
        with pytest.raises(
            GemError, match=rf"^color {color} out of range 0\.\.4$"
        ):
            fig3.mate(1, color)

    @pytest.mark.parametrize("color", [-1, 5, 1.0, True])
    def test_edges_refuse_a_color_out_of_range(self, fig3, color):
        # edges(-1) once listed the edges of color 4
        with pytest.raises(
            GemError, match=rf"^color {color} out of range 0\.\.4$"
        ):
            fig3.edges(color)

    @pytest.mark.parametrize("vertex", [0, -1, 11, 1.0, True])
    def test_degree_refuses_a_vertex_out_of_range(self, fig3, vertex):
        # degree(-1) once counted the colors at vertex 10
        with pytest.raises(
            GemError, match=rf"^vertex {vertex} out of range 1\.\.10$"
        ):
            fig3.degree(vertex)

    def test_equality_and_hash(self, fig2):
        twin = ColoredGraph(
            4, 10, [fig2.edges(c) for c in fig2.colors]
        )
        assert twin == fig2
        assert hash(twin) == hash(fig2)


class TestResiduesAgainstOracle:
    @pytest.mark.parametrize(
        "name",
        [
            "fig1_s4",
            "fig2_s3xI",
            "fig3_d3xs1",
            "fig4_boundary16",
            "s2xs1_8",
            "rp3_8",
        ],
    )
    def test_component_counts_match_bfs(self, name):
        from gemkit import catalog_get

        g = catalog_get(name).graph
        for size in range(1, g.dimension + 2):
            for subset in itertools.combinations(g.colors, size):
                comps = residue_components(g, subset)
                assert len(comps) == bfs_component_count(g, subset)
                assert sum(
                    1 for c in comps if c.regular
                ) == bfs_regular_component_count(g, subset)
                # BFS lists components by smallest start vertex
                assert [(c.vertices, c.regular) for c in comps] == [
                    (
                        tuple(sorted(comp)),
                        all(
                            g.mate(v, color) is not None
                            for v in comp
                            for color in subset
                        ),
                    )
                    for comp in bfs_components(g, subset)
                ]

    def test_bipartiteness_matches_bfs(self, all_entries):
        for entry in all_entries:
            assert entry.graph.is_bipartite() == bfs_is_bipartite(entry.graph)

    def test_bipartiteness_matches_bfs_on_a_large_double(self):
        """The double of the h = 64 sphere-connector chain of fig3_d3xs1
        is bipartite, so the search visits all of its 2 036 vertices
        before it answers."""
        fig3 = chain = catalog_get("fig3_d3xs1").graph
        for _ in range(63):
            internal = next(v for v in chain.vertices if chain.mate(v, 4))
            chain = sphere_connector_sum(chain, internal, fig3, 1)
        doubled = double(chain)
        assert doubled.vertex_count == 2036
        assert doubled.is_bipartite() and bfs_is_bipartite(doubled)

    @pytest.mark.parametrize("seed", range(40))
    def test_bipartiteness_matches_bfs_on_random_gems(self, seed):
        """Seeded random 4-gems, half of them with every color matching
        odd vertices to even ones (bipartite) and half with free
        matchings (rarely bipartite), with a random part of color 4."""
        rng = random.Random(seed)
        n = rng.choice((2, 4, 6, 10, 16, 30))
        vertices = list(range(1, n + 1))
        pairs = []
        for _ in range(5):
            if seed % 2:
                evens = vertices[1::2]
                rng.shuffle(evens)
                pairs.append(list(zip(vertices[0::2], evens)))
            else:
                pairs.append(_matching(vertices, rng))
        pairs[4] = pairs[4][: rng.randint(0, n // 2)]
        g = ColoredGraph(4, n, pairs)
        assert g.is_bipartite() == bfs_is_bipartite(g)
        if seed % 2:
            assert g.is_bipartite()

    def test_empty_color_set_rejected(self, fig2):
        with pytest.raises(GemError):
            residue_components(fig2, ())

    def test_color_out_of_range_rejected(self, fig2):
        with pytest.raises(
            GemError, match=r"^colors \[0, 5\] out of range 0\.\.4$"
        ):
            residue_components(fig2, (5, 0))


class TestFaceVector:
    def test_order_two_sphere(self):
        g = ColoredGraph(4, 2, [[(1, 2)]] * 5)
        fv = face_vector(g)
        assert fv.f == (5, 10, 10, 5, 2)
        assert fv.euler_characteristic == 2

    def test_matches_oracle_on_catalog(self, all_entries):
        for entry in all_entries:
            fv = face_vector(entry.graph)
            assert fv.f == oracle_face_vector(entry.graph)
            assert fv.euler_characteristic == oracle_euler_characteristic(
                entry.graph
            )

    def test_euler_characteristics(self, fig1, fig2, fig3, fig4):
        assert face_vector(fig1).euler_characteristic == 2
        assert face_vector(fig2).euler_characteristic == 0
        assert face_vector(fig3).euler_characteristic == 0
        assert face_vector(fig4).euler_characteristic == 1


class TestBoundaryGraph:
    def test_closed_gem_has_empty_boundary(self, fig1):
        assert boundary_graph(fig1).is_empty()

    def test_fig2_two_sphere_components(self, fig2):
        bg = boundary_graph(fig2)
        assert bg.component_count() == 2
        assert [len(c) for c in bg.components] == [2, 2]
        for q in range(2):
            sub = bg.component_subgraph(q)
            assert sub.is_closed()
            assert validate(sub).is_crystallization

    def test_fig3_single_component_is_s2xs1_entry(self, fig3, s2xs1):
        bg = boundary_graph(fig3)
        assert bg.component_count() == 1
        assert bg.component_subgraph(0) == s2xs1

    def test_parent_vertices_are_boundary(self, fig4):
        bg = boundary_graph(fig4)
        assert list(bg.parent_vertices) == fig4.boundary_vertices()


class TestCensus:
    def test_fig1_census_values(self, fig1):
        counts = census(fig1)
        for i, j, k in itertools.combinations(range(4), 3):
            assert counts.g_of(i, j, k) == 2
        for i, j in itertools.combinations(range(4), 2):
            assert counts.g_of(i, j, 4) == 3

    def test_fig3_interior_cycles(self, fig3):
        counts = census(fig3)
        for i, j in itertools.combinations(range(4), 2):
            assert counts.g_of(i, j, 4) == 2
            assert counts.g_dot_of(i, j, 4) == 0
            assert counts.boundary_g_of(i, j) == 2

    def test_closed_gem_reads_zero_for_each_boundary_pair(self, fig1):
        counts = census(fig1)
        for i, j in itertools.permutations(range(4), 2):
            assert counts.boundary_g_of(i, j) == 0

    def test_every_key_is_the_plans_shared_object(self, fig2, fig4):
        """No key is built per gem: the counts use the keys of the gem's
        dimension, the boundary counts those of one dimension less."""
        for g in (fig2, fig4):
            counts = census(g)
            for mappings, d in (
                ((counts.g, counts.g_dot), g.dimension),
                ((counts.boundary_g, *counts.component_boundary_g),
                 g.dimension - 1),
            ):
                shared = set(map(id, gemkit.core._census_plan(d).keys))
                assert all(
                    id(key) in shared for mapping in mappings
                    for key in mapping
                )

    def test_regular_equals_total_without_last_color(self, all_entries):
        # every color below d is a perfect matching, so residues avoiding
        # color d are automatically regular
        for entry in all_entries:
            g = entry.graph
            counts = census(g)
            for size in range(1, g.dimension + 1):
                for subset in itertools.combinations(range(g.dimension), size):
                    key = frozenset(subset)
                    assert counts.g[key] == counts.g_dot[key]


class TestCensusStopsAtConnectedResidues:
    """More colors only add edges, so once a color set's residue is one
    component, so is every larger set over it.  The census joins no
    color above such a set, builds a color's edge list only for a join
    that runs, and each join takes the color's edges only up to the one
    that connects its residue; the boundary graph's labeling stops at
    one label."""

    @pytest.mark.parametrize(
        "last", [[(1, 2)], []], ids=["closed", "bounded"]
    )
    def test_two_vertex_gem_makes_no_join(self, census_work, last):
        g = ColoredGraph(4, 2, [[(1, 2)]] * 4 + [last])
        calls, takes = census_work
        counts = census(g)
        assert calls == {"_join": 0, "_edge_list": 0} and takes == []
        for key, count in counts.g.items():
            expected = 1 if len(key) > 1 else bfs_component_count(g, key)
            assert count == expected

    @staticmethod
    def _random_gem(n, seed, bounded):
        """A closed or bounded 4-gem on n vertices with seeded random
        matchings; the bounded one misses half the last color."""
        rng = random.Random(seed)
        pairs = [_matching(list(range(1, n + 1)), rng) for _ in range(5)]
        if bounded:
            pairs[4] = pairs[4][: n // 4]
        return ColoredGraph(4, n, pairs)

    def test_split_pairs_still_read_each_further_color(self, census_work):
        g = self._random_gem(40, 27, bounded=False)
        assert all(
            bfs_component_count(g, pair) > 1
            for pair in itertools.combinations(g.colors, 2)
        )
        predicted = census_join_takes(g)
        calls, takes = census_work
        census(g)
        # each root {i, j} with j < 4 joins each further color above j
        assert {(colors[:2], colors[-1]) for colors, _, _ in predicted} == {
            ((i, j), c) for i, j, c in itertools.combinations(g.colors, 3)
        }
        assert takes == [(count, taken) for _, count, taken in predicted]
        assert calls["_edge_list"] == 3

    def _assert_work_follows_the_oracle(self, census_work, g):
        """Expected calls from BFS counts: a join for each set of 3 or
        more colors whose parent, the set without its top color, is
        split, taking the edges of `census_join_takes`; and an edge list
        for each color above a split pair."""
        split = {
            pair
            for pair in itertools.combinations(g.colors, 2)
            if bfs_component_count(g, pair) > 1
        }
        joins = sum(
            bfs_component_count(g, colors[:-1]) > 1
            for size in range(3, 6)
            for colors in itertools.combinations(g.colors, size)
        )
        lists = len({c for _, j in split for c in range(j + 1, 5)})
        predicted = census_join_takes(g)
        calls, takes = census_work
        gemkit.core._residue_counts(g)
        assert calls == {"_join": joins, "_edge_list": lists}
        assert takes == [(count, taken) for _, count, taken in predicted]

    @pytest.mark.parametrize(
        "bounded", [False, True], ids=["closed", "bounded"]
    )
    @pytest.mark.parametrize(
        "n, seed",
        [(4, 1), (6, 2), (8, 3), (12, 4), (40, 27), (120, 5), (400, 6)],
    )
    def test_work_follows_the_oracle_counts(
        self, census_work, n, seed, bounded
    ):
        g = self._random_gem(n, seed, bounded)
        self._assert_work_follows_the_oracle(census_work, g)

    @pytest.mark.parametrize("n, seed", [(12, 4), (60, 8), (200, 9)])
    def test_work_follows_the_oracle_counts_on_doubles(
        self, census_work, n, seed
    ):
        """Each triple without color 4 of a double is split in two
        copies, so color 4 is joined twice over a root, by the triple
        with it and by the set of four, each join on its own stream."""
        g = double(self._random_gem(n, seed, bounded=True))
        self._assert_work_follows_the_oracle(census_work, g)
        root_colors = [
            (colors[:2], colors[-1]) for colors, _, _ in census_join_takes(g)
        ]
        assert len(set(root_colors)) < len(root_colors)

    def test_connected_joins_leave_the_rest_unread(self, census_work):
        """On a 400-vertex bounded gem some join stops before the end of
        its color's edge list and some takes a whole list, and the
        counts match BFS."""
        g = self._random_gem(400, 6, bounded=True)
        predicted = census_join_takes(g)
        _, takes = census_work
        counts = gemkit.core._residue_counts(g)[0]
        assert takes == [(count, taken) for _, count, taken in predicted]
        ends = [
            (taken, len(g.edges(colors[-1])))
            for colors, _, taken in predicted
        ]
        assert any(taken < total for taken, total in ends)
        assert any(taken == total for taken, total in ends)
        assert counts == {
            key: bfs_component_count(g, key) for key in counts
        }


class TestValidate:
    def test_fig2_crystallization(self, fig2):
        report = validate(fig2)
        assert report.is_crystallization
        assert report.h == 2
        assert report.f0 == 9  # 4h + 1

    def test_fig3_crystallization(self, fig3):
        report = validate(fig3)
        assert report.is_crystallization
        assert report.h == 1
        assert report.f0 == 5

    def test_fig4_crystallization_non_bipartite(self, fig4):
        report = validate(fig4)
        assert report.is_crystallization
        assert report.h == 1
        assert not report.bipartite

    def test_fig1_closed_but_not_contracted(self, fig1):
        report = validate(fig1)
        assert report.closed
        assert not report.contracted
        assert not report.is_crystallization
        assert report.f0 == 9

    def test_disjoint_union_is_disconnected(self):
        # two order-2 gems side by side
        g = ColoredGraph(4, 4, [[(1, 2), (3, 4)]] * 5)
        assert bfs_component_count(g, g.colors) == 2
        report = validate(g)
        assert not report.connected
        assert report.contracted_per_color == (False,) * 5
        assert not report.is_crystallization

    def test_order_two_gems_are_crystallizations(self):
        for d in (3, 4):
            g = ColoredGraph(d, 2, [[(1, 2)]] * (d + 1))
            assert validate(g).is_crystallization


def _fresh(name: str) -> ColoredGraph:
    """A newly parsed copy of a catalog gem, with nothing memoized."""
    return parse_gem(export_gem(catalog_get(name).graph))


class TestPerGraphMemo:
    def test_repeat_calls_share_one_result(self):
        g = _fresh("fig2_s3xI")
        assert census(g) is census(g)
        assert boundary_graph(g) is boundary_graph(g)
        assert face_vector(g) is face_vector(g)
        assert validate(g) is validate(g)
        assert double(g) is double(g)
        assert census(double(g)) is census(double(g))

    def test_copies_equal_whether_or_not_memo_is_filled(self):
        a, b = _fresh("fig2_s3xI"), _fresh("fig2_s3xI")
        assert a is not b
        assert a == b and hash(a) == hash(b)
        census(a)
        double(a)
        assert a == b and hash(a) == hash(b)
        # results are kept per object, and both copies agree on them
        assert census(a) is not census(b)
        assert census(a) == census(b)
        assert a == b and hash(a) == hash(b)

    def test_census_mappings_are_read_only(self):
        g = _fresh("fig2_s3xI")
        counts = census(g)
        key = frozenset((0, 1))
        before = counts.g[key]
        for mapping in (
            counts.g,
            counts.g_dot,
            counts.boundary_g,
            *counts.component_boundary_g,
        ):
            with pytest.raises(TypeError):
                mapping[key] = 99
        assert census(g).g[key] == before

    def test_residue_work_runs_once_per_graph(self, monkeypatch):
        calls = []
        original = gemkit.core._residue_counts

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(gemkit.core, "_residue_counts", counting)
        kernel_calls = {}
        for kernel in ("_embedding", "_via_double", "_via_census"):
            kernel_calls[kernel] = 0
            original_kernel = getattr(gemkit.genus, kernel)

            def counting_kernel(*args, _name=kernel, _run=original_kernel):
                kernel_calls[_name] += 1
                return _run(*args)

            monkeypatch.setattr(gemkit.genus, kernel, counting_kernel)
        g = _fresh("fig4_boundary16")
        regular_genus(g)
        # one residue census of g and one of its double
        assert calls == [g, double(g)]
        meta = catalog_get("fig4_boundary16").meta
        verify_identities(g)
        verify_bounds(g, meta)
        certify_minimal(g, meta)
        ManifoldMeta.for_graph(g, m=meta.m)
        assert calls == [g, double(g)]
        # one scheme table: each formula once per scheme
        assert kernel_calls == {
            "_embedding": 12, "_via_double": 12, "_via_census": 12
        }

    def test_regular_genus_runs_once_per_graph(self, monkeypatch):
        """The bounds ledger, `certify_minimal` and `_floors` read the
        stored genus profile and build no further `GenusProfile`."""
        g = _fresh("fig4_boundary16")
        profile = regular_genus(g)
        assert regular_genus(g) is profile
        built = []
        real = gemkit.genus.GenusProfile

        def counting(*args, **kwargs):
            built.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(gemkit.genus, "GenusProfile", counting)
        meta = catalog_get("fig4_boundary16").meta
        verify_bounds(g, meta)
        certify_minimal(g, meta)
        gemkit.genus._floors(g, meta)
        assert built == []
        assert regular_genus(g) is profile
        # a graph with nothing stored builds one
        regular_genus(_fresh("fig4_boundary16"))
        assert len(built) == 1

    def test_genus_disagreement_is_raised_on_every_call(self):
        """Exceptions are not stored: a second call on the same graph
        raises the same "disagree" error again."""
        g = load_gem(Path(__file__).parent / "data" / "random-033.gem")
        messages = []
        for _ in range(2):
            with pytest.raises(GemError, match="genus formulas disagree") as e:
                regular_genus(g)
            messages.append(str(e.value))
        assert messages[0] == messages[1]

    def test_genus_values_are_shared_fractions(self):
        """The public formulas and the ledger report `Fraction`s, one
        shared object per value, so equal sides are one object."""
        g = _fresh("fig4_boundary16")
        scheme = (0, 1, 2, 3, 4)
        values = (
            rho_epsilon(g, scheme).rho,
            rho_epsilon_via_double(g, scheme),
            rho_epsilon_census(g, scheme),
        )
        assert all(type(value) is Fraction for value in values)
        assert values[0] is values[1] is values[2]
        profile = regular_genus(g)
        assert type(profile.rho) is Fraction
        assert profile.rho is min(e.rho for e in profile.entries)
        rows = [
            c for c in verify_identities(g).checks
            if c.name == "genus-formula-agreement"
        ]
        assert len(rows) == 12
        for check in rows:
            assert all(type(side) is Fraction
                       for side in (*check.left, *check.right))
            assert check.left[0] is check.right[0] is check.right[1]
