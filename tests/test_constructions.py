"""Doubling, dipole moves, connected sums and the interval product."""

import itertools

import pytest

from gemkit import (
    ColoredGraph,
    Dipole,
    GemError,
    catalog_get,
    census,
    connected_sum,
    crystallize_double,
    double,
    face_vector,
    find_one_dipoles,
    interval_product,
    remove_one_dipole,
    sphere_connector_sum,
    validate,
)
from oracles import bfs_component_count


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
        with pytest.raises(GemError, match="with boundary"):
            crystallize_double(fig1)


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
        with pytest.raises(GemError, match="color-degree mismatch"):
            connected_sum(fig3, boundary_vertex, fig3, 1)

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
        with pytest.raises(GemError, match="3-dimensional"):
            interval_product(fig3)

    def test_non_crystallization_rejected(self):
        # two disjoint order-2 spheres: closed but disconnected
        g = ColoredGraph(
            3, 4, [[(1, 2), (3, 4)]] * 4
        )
        with pytest.raises(GemError):
            interval_product(g)
