"""Doubling, dipole moves, connected sums and the interval product."""

import itertools
import random

import pytest

import gemkit.constructions
import gemkit.genus
from gemkit import (
    ColoredGraph,
    Dipole,
    GemError,
    catalog_get,
    census,
    connected_sum,
    crystallize_double,
    double,
    export_gem,
    face_vector,
    find_one_dipoles,
    interval_product,
    parse_gem,
    remove_one_dipole,
    sphere_connector_sum,
    validate,
)
from gemkit.constructions import _contract
from oracles import (
    bfs_component_count,
    crystallize_double_reference,
    pair_rebuild,
)


class TestDouble:
    def test_double_is_closed_with_twice_the_vertices(self, fig2):
        doubled = double(fig2)
        assert doubled.is_closed()
        n = fig2.vertex_count
        assert doubled.vertex_count == 2 * n
        # copy 2 of vertex v is v + n, with every edge shifted alongside
        for v in fig2.vertices:
            for c in fig2.colors:
                mate = fig2.mate(v, c)
                if mate is not None:
                    assert doubled.mate(v, c) == mate
                    assert doubled.mate(v + n, c) == mate + n
        for v in fig2.boundary_vertices():
            assert doubled.mate(v, 4) == v + n

    def test_double_census_relations(self, fig2, fig3, fig4):
        for g in (fig2, fig3, fig4):
            doubled = double(g)
            dc, c = census(doubled), census(g)
            for i, j, k in itertools.combinations(range(4), 3):
                assert dc.g_of(i, j, k) == 2 * c.g_of(i, j, k)
            for i, j in itertools.combinations(range(4), 2):
                assert dc.g_of(i, j, 4) == c.g_of(i, j, 4) + c.g_dot_of(i, j, 4)

    def test_double_euler_characteristic(self, fig3, fig4):
        # chi(double) = 2 chi - chi(boundary); boundary components of a
        # 4-manifold are closed 3-manifolds with chi = 0
        for g in (fig3, fig4):
            doubled = double(g)
            assert (
                face_vector(doubled).euler_characteristic
                == 2 * face_vector(g).euler_characteristic
            )

    def test_double_of_closed_rejected(self, fig1):
        with pytest.raises(GemError, match="nonempty boundary"):
            double(fig1)


class TestDipoles:
    def test_doubled_fig3_has_dipoles(self, fig3):
        doubled = double(fig3)
        assert find_one_dipoles(doubled, 4)

    def test_stale_certificate_rejected(self, fig3):
        doubled = double(fig3)
        dipoles = find_one_dipoles(doubled, 4)
        out = remove_one_dipole(doubled, dipoles[0])
        with pytest.raises(GemError, match="stale dipole"):
            remove_one_dipole(out, dipoles[-1] if len(dipoles) > 1
                              else dipoles[0])

    def test_removal_preserves_euler_characteristic(self, fig3):
        doubled = double(fig3)
        chi = face_vector(doubled).euler_characteristic
        for color in range(5):
            for dipole in find_one_dipoles(doubled, color):
                out = remove_one_dipole(doubled, dipole)
                assert out.vertex_count == doubled.vertex_count - 2
                assert face_vector(out).euler_characteristic == chi

    def test_bogus_dipole_rejected(self, fig3):
        doubled = double(fig3)
        a = 1
        b = doubled.mate(1, 0)
        with pytest.raises(GemError):
            remove_one_dipole(doubled, Dipole(u=a, v=b, color=1))
        # two vertices joined by several colors lie in one residue on
        # every color but any one of them
        for name in ("s4_order2", "d4_order2"):
            g = catalog_get(name).graph
            for c in g.colors:
                assert not Dipole(1, 2, c).verify(g)

    def test_endpoints_not_joined_by_the_color_are_no_dipole(self, fig3):
        doubled = double(fig3)
        u = 1
        w = next(
            v for v in doubled.vertices
            if v != u and all(doubled.mate(u, c) != v for c in doubled.colors)
        )
        assert not Dipole(u, w, 4).verify(doubled)
        assert not Dipole(u, u, 4).verify(doubled)

    @pytest.mark.parametrize("field", ["u", "v", "color"])
    def test_dipole_with_a_float_field_is_no_dipole(self, fig3, field):
        """A field that only equals the int of a real dipole fails the
        certificate instead of raising."""
        doubled = double(fig3)
        dipole = find_one_dipoles(doubled, 4)[0]
        assert dipole.verify(doubled)
        bent = dipole._replace(**{field: float(getattr(dipole, field))})
        assert not bent.verify(doubled)

    @pytest.mark.parametrize("color", [5, 9, -1])
    def test_dipole_of_a_color_out_of_range_is_stale(self, fig3, color):
        doubled = double(fig3)
        dipole = Dipole(1, 2, color)
        assert not dipole.verify(doubled)
        with pytest.raises(GemError, match="stale dipole"):
            remove_one_dipole(doubled, dipole)
        with pytest.raises(
            GemError, match=rf"^color {color} out of range 0\.\.4$"
        ):
            find_one_dipoles(doubled, color)


class TestCrystallizeDouble:
    def test_fig3_pipeline(self, crystallized_double_fig3, fig3):
        out = crystallized_double_fig3
        assert out.vertex_count == 18
        report = validate(out)
        assert report.closed and report.is_crystallization
        assert face_vector(out).euler_characteristic == 0

    def test_fig3_census_shift(self, crystallized_double_fig3, fig3):
        doubled = double(fig3)
        dc = census(doubled)
        oc = census(crystallized_double_fig3)
        h = validate(fig3).h
        for i, j, k in itertools.combinations(range(4), 3):
            assert oc.g_of(i, j, k) == dc.g_of(i, j, k) - h
        for i, j in itertools.combinations(range(4), 2):
            assert oc.g_of(i, j, 4) == dc.g_of(i, j, 4) - 2 * (h - 1)

    def test_closed_triple_relation_on_output(self, crystallized_double_fig3):
        out = crystallized_double_fig3
        counts = census(out)
        half = out.vertex_count // 2
        for i, j, k in itertools.combinations(range(5), 3):
            assert 2 * counts.g_of(i, j, k) == (
                counts.g_of(i, j) + counts.g_of(i, k) + counts.g_of(j, k)
                - half
            )

    def test_fig2_pipeline(self, fig2):
        out = crystallize_double(fig2)
        report = validate(out)
        assert report.closed and report.is_crystallization
        # the double of an interval-bundle gem collapses to the closed slice
        assert face_vector(out).euler_characteristic == 0

    def test_closed_input_rejected(self, fig1):
        message = "^input is closed; needs a gem with nonempty boundary$"
        with pytest.raises(GemError, match=message):
            crystallize_double(fig1)

    def test_a_contraction_left_uncrystallized_is_caught(
        self, monkeypatch, fig3
    ):
        monkeypatch.setattr(gemkit.constructions, "_contract", lambda g: g)
        message = ("^dipole cancellation did not yield a closed "
                   "crystallization$")
        with pytest.raises(GemError, match=message):
            crystallize_double(fig3)

    def test_a_contraction_with_the_wrong_census_is_caught(
        self, monkeypatch, fig3
    ):
        # a closed crystallization, but not the contracted double
        s4 = catalog_get("s4_order2").graph
        monkeypatch.setattr(gemkit.constructions, "_contract", lambda g: s4)
        message = ("^census check failed: g_012 of the contracted double "
                   "is not the doubled count minus h$")
        with pytest.raises(GemError, match=message):
            crystallize_double(fig3)


def _internal(g):
    return [v for v in g.vertices if g.mate(v, g.dimension) is not None]


def _chain(h, seed):
    """A seeded sphere-connector sum of h copies of D^3 x S^1."""
    fig3 = catalog_get("fig3_d3xs1").graph
    rng = random.Random(seed)
    chain = fig3
    for _ in range(h - 1):
        chain = sphere_connector_sum(
            chain, rng.choice(_internal(chain)), fig3, rng.choice(_internal(fig3))
        )
    return chain


def _outcome(construct, *args):
    """The GEM export of a construction, or its error message."""
    try:
        return export_gem(construct(*args))
    except GemError as exc:
        return f"GemError: {exc}"


def _cancellation_corpus():
    """Bounded catalog entries, interval products, chains for h = 1..10
    and 50 seeded sums of them with closed or bounded 4-gems."""
    gems = {
        name: catalog_get(name).graph
        for name in ("d4_order2", "fig2_s3xI", "fig3_d3xs1", "fig4_boundary16")
    }
    for name in ("s2xs1_8", "rp3_8", "s3_order2"):
        gems[f"product-{name}"] = interval_product(catalog_get(name).graph)
    for h in range(1, 11):
        gems[f"chain-h{h}"] = _chain(h, seed=h)
    left = [g for name, g in gems.items()
            if _internal(g) and name not in ("chain-h9", "chain-h10")]
    right = left + [catalog_get(name).graph for name in ("fig1_s4", "s4_order2")]
    rng = random.Random(2026)
    for i in range(50):
        g1, g2 = rng.choice(left), rng.choice(right)
        summing = rng.choice((connected_sum, sphere_connector_sum))
        gems[f"sum-{i}"] = summing(
            g1, rng.choice(_internal(g1)), g2, rng.choice(_internal(g2))
        )
    return gems


class TestFastCancellation:
    """`crystallize_double` cancels dipoles by label merges on mutable
    arrays; repeated dipole moves that rebuild the pair lists are its
    oracle."""

    def test_matches_repeated_dipole_moves(self):
        outcomes = {"ok": 0, "error": 0}
        for name, g in _cancellation_corpus().items():
            fast = _outcome(crystallize_double, g)
            assert fast == _outcome(crystallize_double_reference, g), name
            outcomes["error" if fast.startswith("GemError") else "ok"] += 1
        # both the contraction and its failures are exercised
        assert outcomes["ok"] >= 30 and outcomes["error"] >= 10

    def test_contraction_names_the_color_it_cannot_finish(self):
        # two disjoint order-2 3-spheres: two residues without each
        # color, and no 1-dipole to merge them
        g = ColoredGraph(3, 4, [[(1, 2), (3, 4)]] * 4)
        with pytest.raises(
            GemError, match="^no 1-dipole of color 0 available$"
        ):
            _contract(g)

    def test_graphs_built_do_not_grow_with_cancellations(self, monkeypatch):
        # every graph, from pairs or from mate arrays, ends in `_store`
        built = {}
        store = ColoredGraph._store
        for h in (2, 7):
            g = parse_gem(export_gem(_chain(h, seed=3)))
            double(g)  # memoized: only the contraction's own graphs count
            count = 0

            def counting_store(self, *args):
                nonlocal count
                count += 1
                store(self, *args)

            with monkeypatch.context() as patch:
                patch.setattr(ColoredGraph, "_store", counting_store)
                crystallize_double(g)
            built[h] = count
        assert built[2] == built[7] > 0

    def test_chain_of_a_hundred_summands(self):
        h = 100
        g = _chain(h, seed=3)
        out = crystallize_double(g)
        # each of the 4(h-1) + 1 cancellations removes two vertices
        assert out.vertex_count == 2 * g.vertex_count - 2 * (4 * (h - 1) + 1)


def test_outputs_equal_their_pair_rebuild(fig2, fig3, fig4):
    # random inputs to double, connected_sum and the boundary graph are
    # swept in test_properties
    outputs = [crystallize_double(g) for g in (fig2, fig3, fig4)]
    outputs += [
        interval_product(catalog_get(name).graph)
        for name in ("s2xs1_8", "rp3_8", "s3_order2")
    ]
    outputs.append(sphere_connector_sum(fig3, 1, fig4, _internal(fig4)[-1]))
    for out in outputs:
        assert out == pair_rebuild(out)


class TestConnectedSum:
    def test_vertex_count_and_connectivity(self, fig1):
        out = connected_sum(fig1, 1, fig1, 2)
        assert out.vertex_count == 18
        assert out.is_closed()
        assert bfs_component_count(out, out.colors) == 1

    def test_sphere_sum_is_neutral_for_census(self, fig1):
        # summing two copies of the sphere connector keeps chi = 2
        out = connected_sum(fig1, 1, fig1, 2)
        assert face_vector(out).euler_characteristic == 2

    def test_boundary_vertex_rejected_by_default(self, fig3):
        boundary_vertex = fig3.boundary_vertices()[0]
        with pytest.raises(GemError, match="internal"):
            connected_sum(fig3, boundary_vertex, fig3, boundary_vertex)
        with pytest.raises(GemError, match="^summing vertices must be internal$"):
            connected_sum(fig3, boundary_vertex, fig3, 1)

    @pytest.mark.parametrize(
        "v1,v2", [(0, 1), (-1, 1), (11, 1), (1, 0), (1, 11)]
    )
    def test_summing_vertex_out_of_range_rejected(self, fig1, v1, v2):
        assert fig1.vertex_count == 10
        with pytest.raises(GemError, match="^summing vertex out of range$"):
            connected_sum(fig1, v1, fig1, v2)

    def test_dimension_mismatch_rejected(self, fig3, s2xs1):
        with pytest.raises(GemError, match="equal dimensions"):
            connected_sum(fig3, 1, s2xs1, 1)

    def test_connector_sum_size_and_shape(self, connector_sum_fig3, fig3):
        out = connector_sum_fig3
        assert out.vertex_count == 2 * fig3.vertex_count + 6
        report = validate(out)
        assert report.is_crystallization
        assert report.h == 2
        assert face_vector(out).euler_characteristic == -2

    def test_plain_sum_of_two_bounded_gems_is_not_the_manifold_sum(
        self, fig2
    ):
        """A characterization, not a contract: S^3 x I # S^3 x I has
        h = 4 and chi = 0 + 0 - 2, and the plain graph sum of two
        bounded gems misses both, while the sum through the closed
        connector reads them."""
        meta = catalog_get("fig2_s3xI").meta
        want = (2 * meta.h, 2 * meta.chi - 2)
        assert want == (4, -2)
        plain = connected_sum(fig2, 4, fig2, 4)
        routed = sphere_connector_sum(fig2, 4, fig2, 4)
        for out, expected in ((plain, (3, -1)), (routed, want)):
            assert validate(out).is_crystallization
            assert (
                validate(out).h, face_vector(out).euler_characteristic
            ) == expected


class TestIntervalProduct:
    def test_product_shape(self, product_s2xs1, s2xs1):
        out = product_s2xs1
        assert out.vertex_count == 5 * s2xs1.vertex_count
        report = validate(out)
        assert report.is_crystallization
        assert report.h == 2
        assert face_vector(out).euler_characteristic == 0

    def test_boundary_components_are_copies_of_input_manifold(
        self, product_s2xs1, s2xs1
    ):
        from gemkit import boundary_graph

        bg = boundary_graph(product_s2xs1)
        assert bg.component_count() == 2
        for q in range(2):
            sub = bg.component_subgraph(q)
            assert sub.vertex_count == s2xs1.vertex_count
            assert census(sub).g == census(s2xs1).g

    def test_product_census_relations(self, product_s2xs1, s2xs1):
        c3 = census(s2xs1)
        cp = census(product_s2xs1)
        g01, g03 = c3.g_of(0, 1), c3.g_of(0, 3)
        g12 = c3.g_of(1, 2)
        assert cp.g_of(0, 1, 2) == 1 + g01
        assert cp.g_of(1, 2, 3) == 1 + g12
        assert cp.g_of(0, 1, 4) == 1 + g01 + g03
        assert cp.g_dot_of(2, 3, 4) == 1
        assert cp.g_dot_of(0, 3, 4) == 1

    def test_product_of_rp3(self, product_rp3, rp3):
        assert product_rp3.vertex_count == 40
        assert validate(product_rp3).is_crystallization

    def test_sphere_product(self):
        s3 = catalog_get("s3_order2").graph
        out = interval_product(s3)
        report = validate(out)
        assert out.vertex_count == 10
        assert report.is_crystallization
        assert report.h == 2
        # same manifold family as the stored 10-vertex interval bundle
        assert face_vector(out).euler_characteristic == 0

    def test_wrong_dimension_rejected(self, fig3):
        with pytest.raises(
            GemError, match="^input has dimension 4; needs dimension 3$"
        ):
            interval_product(fig3)

    def test_a_wrong_genus_realization_is_caught(self, monkeypatch, s2xs1):
        original = gemkit.genus.rho_epsilon

        def off_by_one(g, scheme):
            profile = original(g, scheme)
            return profile._replace(rho=profile.rho + 1)

        monkeypatch.setattr(gemkit.genus, "rho_epsilon", off_by_one)
        message = (r"^interval product genus check failed: rho at scheme "
                   r"\(2,0,3,1,4\) is 5, expected 4$")
        with pytest.raises(GemError, match=message):
            interval_product(s2xs1)

    @pytest.mark.parametrize(
        "n, edges, sum_fails, complements_fail",
        [
            (4, [[(1, 2), (3, 4)], [(1, 2), (3, 4)], [(1, 3), (2, 4)],
                 [(1, 4), (2, 3)]], False, True),
            (4, [[(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 3), (2, 4)],
                 [(1, 4), (2, 3)]], True, True),
            (6, [[(1, 2), (3, 4), (5, 6)], [(1, 2), (3, 5), (4, 6)],
                 [(1, 3), (2, 6), (4, 5)], [(1, 6), (2, 3), (4, 5)]],
             True, False),
        ],
        ids=["complements", "both", "sum"],
    )
    def test_census_conditions_rejected(
        self, n, edges, sum_fails, complements_fail
    ):
        """Closed 3-crystallizations that break the sum clause, the
        complement clause or both."""
        g = ColoredGraph(3, n, edges)
        report = validate(g)
        assert (report.closed, report.is_crystallization) == (True, True)
        g_of = census(g).g_of
        low = (g_of(0, 1), g_of(0, 2), g_of(0, 3))
        assert (sum(low) != 2 + n // 2) == sum_fails
        assert (low != (g_of(2, 3), g_of(1, 3), g_of(1, 2))) == complements_fail
        message = (
            "input fails the closed 3-manifold census conditions "
            "(complementary pair counts equal and summing to 2 + n/2)"
        )
        with pytest.raises(GemError) as exc:
            interval_product(g)
        assert str(exc.value) == message

    def test_non_crystallization_rejected(self):
        # two disjoint order-2 spheres: closed but disconnected
        g = ColoredGraph(
            3, 4, [[(1, 2), (3, 4)]] * 4
        )
        with pytest.raises(GemError):
            interval_product(g)
