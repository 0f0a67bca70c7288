"""Catalog contents and derivations between entries."""

import itertools

import pytest

from gemkit import (
    ColoredGraph,
    GemError,
    boundary_graph,
    catalog_get,
    catalog_list,
    census,
    face_vector,
    validate,
)


EXPECTED_NAMES = {
    "s4_order2",
    "d4_order2",
    "s3_order2",
    "fig1_s4",
    "fig2_s3xI",
    "fig3_d3xs1",
    "fig4_boundary16",
    "s2xs1_8",
    "rp3_8",
}


def test_catalog_names():
    assert EXPECTED_NAMES <= set(catalog_list())


def test_unknown_name_rejected():
    with pytest.raises(GemError, match="unknown catalog entry"):
        catalog_get("no_such_gem")


def test_every_entry_validates(all_entries):
    for entry in all_entries:
        report = validate(entry.graph)
        assert report.connected, entry.name
        if entry.meta is not None:
            assert report.is_crystallization, entry.name
            assert report.h == entry.meta.h, entry.name


def test_expected_invariants_recomputed(all_entries):
    from gemkit import face_vector, gem_complexity, regular_genus

    for entry in all_entries:
        g = entry.graph
        report = validate(g)
        counts = census(g)
        for key, value in entry.expected.items():
            if key == "closed":
                assert report.closed == value, entry.name
            elif key == "chi":
                assert face_vector(g).euler_characteristic == value, entry.name
            elif key == "bipartite":
                assert report.bipartite == value, entry.name
            elif key == "h":
                assert report.h == value, entry.name
            elif key == "p_bar2":
                assert g.vertex_tally().boundary == value, entry.name
            elif key == "rho":
                assert regular_genus(g).rho == value, entry.name
            elif key == "complexity":
                assert gem_complexity(g) == value, entry.name
            elif key == "g_ij":
                for i, j in itertools.combinations(range(g.dimension + 1), 2):
                    assert counts.g_of(i, j) == value, entry.name
            elif key == "g_ijk":
                for t in itertools.combinations(range(4), 3):
                    assert counts.g_of(*t) == value, entry.name
            elif key == "g_ij4":
                for i, j in itertools.combinations(range(4), 2):
                    assert counts.g_of(i, j, 4) == value, entry.name
            elif key == "boundary_pair_count":
                for i, j in itertools.combinations(range(4), 2):
                    assert counts.boundary_g_of(i, j) == value, entry.name
            elif key == "vertex_counts":
                tally = g.vertex_tally()
                assert (
                    tally.total,
                    tally.total + tally.boundary,
                    tally.total - tally.boundary,
                ) == value, entry.name
            else:
                raise AssertionError(f"untested expectation {key!r}")


def test_documented_derivations_reproduce_entries():
    for name in catalog_list():
        entry = catalog_get(name)
        if entry.derived_from is None:
            continue
        parent_name, removed = entry.derived_from
        parent = catalog_get(parent_name).graph
        d = parent.dimension
        last = [
            pair
            for pair in parent.edges(d)
            if pair not in {tuple(sorted(p)) for p in removed}
        ]
        rebuilt = ColoredGraph(
            d,
            parent.vertex_count,
            [parent.edges(c) for c in range(d)] + [last],
        )
        assert rebuilt == entry.graph, name


def test_closed_3d_entries_satisfy_sphere_relation():
    # for each pair triple sharing a color, cycle counts sum to 2 + n/2
    for name in ("s3_order2", "s2xs1_8", "rp3_8"):
        g = catalog_get(name).graph
        counts = census(g)
        n = g.vertex_count
        assert (
            counts.g_of(0, 1) + counts.g_of(0, 2) + counts.g_of(0, 3)
            == 2 + n // 2
        )


def test_minimal_3_manifold_entries_census(s2xs1, rp3):
    for g in (s2xs1, rp3):
        counts = census(g)
        for i, j in itertools.combinations(range(4), 2):
            assert counts.g_of(i, j) == 2
        assert g.is_bipartite()
        assert validate(g).is_crystallization
    # the two entries represent different manifolds, so the graphs differ
    assert s2xs1 != rp3


def test_connector_vertices_are_internal(fig1):
    entry = catalog_get("fig1_s4")
    assert entry.connector_vertices == (1, 2)
    for v in entry.connector_vertices:
        assert fig1.mate(v, 4) is not None



def test_fig4_has_one_non_orientable_boundary_component(fig4):
    """Not a punctured RP^4, which has chi = 0 and boundary S^3: chi = 1,
    and neither the gem nor its one boundary gem is bipartite."""
    meta = catalog_get("fig4_boundary16").meta
    fv = face_vector(fig4)
    assert fv.f == (5, 20, 44, 44, 16)
    assert fv.euler_characteristic == meta.chi == 1
    assert validate(fig4).h == meta.h == 1
    assert not fig4.is_bipartite()
    bd = boundary_graph(fig4)
    assert bd.component_count() == 1
    assert bd.graph.vertex_count == 8
    assert not bd.graph.is_bipartite()
