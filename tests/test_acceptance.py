"""Acceptance gate: the ten headline checks, all exact arithmetic.

Each criterion is one test that performs every assertion of the
criterion and then emits a single "criterion N: PASS" line (a failed
assertion fails the test before the line is printed, and pytest's
verbose listing shows the corresponding FAILED line).
"""

import itertools
import json
import sys
from fractions import Fraction

from gemkit import (
    ColoredGraph,
    ManifoldMeta,
    boundary_graph,
    catalog_get,
    catalog_list,
    census,
    complexity_lower_bounds,
    crystallize_double,
    double,
    export_gem,
    face_vector,
    gem_complexity,
    genus_lower_bounds,
    interval_product,
    parse_gem,
    regular_genus,
    rho_epsilon,
    rho_epsilon_census,
    rho_epsilon_via_double,
    enumerate_schemes,
    sphere_connector_sum,
    validate,
    vertex_lower_bounds,
    verify_identities,
    weak_semi_simple,
)
from gemkit.cli import main as cli_main


def _report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS — {text}", file=sys.stderr)


def test_criterion_01_interval_bundle_gem():
    g = catalog_get("fig2_s3xI").graph
    report = validate(g)
    assert report.is_crystallization and report.h == 2
    assert g.vertex_count == 10
    assert g.vertex_tally().boundary == 4  # 2 p_bar = 4
    assert face_vector(g).euler_characteristic == 0
    profile = regular_genus(g)
    assert profile.rho == 0
    for scheme in enumerate_schemes(4):
        embedding = rho_epsilon(g, scheme).rho
        assert embedding == rho_epsilon_via_double(g, scheme)
        assert embedding == rho_epsilon_census(g, scheme)
    meta = ManifoldMeta.for_graph(g, m=0, boundary_genus=0)
    assert gem_complexity(g) == 4 == complexity_lower_bounds(meta)[0]
    recognition = weak_semi_simple(g, meta)
    assert recognition.type_one is True and recognition.type_two is True
    _report(1, "10-vertex interval-bundle gem: h=2, chi=0, rho=0 on all 12 "
               "schemes by three formulas, complexity 4 = bound, weak "
               "semi-simple types I and II")


def test_criterion_02_solid_torus_bundle_gem():
    g = catalog_get("fig3_d3xs1").graph
    report = validate(g)
    assert report.is_crystallization and report.h == 1
    assert g.vertex_tally().boundary == 8  # 2 p_bar = 8
    bg = boundary_graph(g)
    assert bg.component_count() == 1
    assert bg.graph.vertex_count == 8
    counts = census(g)
    for i, j in itertools.combinations(range(4), 2):
        assert counts.boundary_g_of(i, j) == 2
    # closed 3-manifold census relation on the boundary component
    per = counts.component_boundary_g[0]
    assert (
        per[frozenset((0, 1))] + per[frozenset((0, 2))]
        + per[frozenset((0, 3))]
        == 2 + 8 // 2
    )
    meta = ManifoldMeta.for_graph(g, m=1)
    assert regular_genus(g).rho == 1 == genus_lower_bounds(meta)[1]
    assert gem_complexity(g) == 4 == complexity_lower_bounds(meta)[0]
    _report(2, "10-vertex solid-torus-bundle gem: h=1, single 8-vertex "
               "boundary with all pair counts 2, rho=1 = bound, "
               "complexity 4 = bound")


def test_criterion_03_sixteen_vertex_gem():
    g = catalog_get("fig4_boundary16").graph
    assert g.vertex_count == 16
    assert face_vector(g).euler_characteristic == 1
    assert not g.is_bipartite()
    meta = ManifoldMeta.for_graph(g, m=1)
    assert vertex_lower_bounds(meta) == (16, 24, 8)
    tally = g.vertex_tally()
    assert (
        tally.total,
        tally.total + tally.boundary,
        tally.total - tally.boundary,
    ) == (16, 24, 8)
    assert regular_genus(g).rho == 3 == genus_lower_bounds(meta)[1]
    _report(3, "16-vertex gem: chi=1, non-bipartite, vertex floors "
               "(16,24,8) all attained, rho=3 = bound")


def test_criterion_04_sphere_connector_census():
    g = catalog_get("fig1_s4").graph
    assert g.is_closed()
    counts = census(g)
    for i, j, k in itertools.combinations(range(4), 3):
        assert counts.g_of(i, j, k) == 2
    for i, j in itertools.combinations(range(4), 2):
        assert counts.g_of(i, j, 4) == 3
    _report(4, "10-vertex closed 4-sphere gem: g_ijk=2 and g_ij4=3 for "
               "all i,j,k <= 3")


def test_criterion_05_interval_products():
    for name in ("s2xs1_8", "rp3_8"):
        product = interval_product(catalog_get(name).graph)
        assert product.vertex_count == 40
        report = validate(product)
        assert report.is_crystallization and report.h == 2
        assert regular_genus(product).rho == 4
    # the genus-12 product check applies only to an optional entry
    if "t3" in catalog_list():
        t3 = interval_product(catalog_get("t3").graph)
        assert regular_genus(t3).rho == 12
    _report(5, "interval products of both 8-vertex closed 3-manifold gems: "
               "40 vertices, h=2 crystallizations with rho=4")


def test_criterion_06_connector_sum_sharpness():
    g = catalog_get("fig3_d3xs1").graph
    summed = sphere_connector_sum(g, 1, g, 1)
    assert summed.vertex_count == 26
    meta = ManifoldMeta.for_graph(summed, m=2)
    assert meta.chi == -2 and meta.h == 2
    assert complexity_lower_bounds(meta)[0] == 12 == gem_complexity(summed)
    assert genus_lower_bounds(meta)[1] == 2 == regular_genus(summed).rho
    _report(6, "sphere-routed self-sum of the solid-torus-bundle gem: 26 "
               "vertices, complexity 12 = bound, rho 2 = bound")


def test_criterion_07_double_pipeline():
    g = catalog_get("fig3_d3xs1").graph
    doubled = double(g)
    closed = crystallize_double(g)
    assert closed.vertex_count == 18
    report = validate(closed)
    assert report.closed and report.is_crystallization
    assert face_vector(closed).euler_characteristic == 0
    assert 2 * face_vector(g).euler_characteristic == 0
    dc, oc = census(doubled), census(closed)
    h = 1
    for i, j, k in itertools.combinations(range(4), 3):
        assert oc.g_of(i, j, k) == dc.g_of(i, j, k) - h
    for i, j in itertools.combinations(range(4), 2):
        assert oc.g_of(i, j, 4) == dc.g_of(i, j, 4) - 2 * (h - 1)
    half = closed.vertex_count // 2
    for i, j, k in itertools.combinations(range(5), 3):
        assert 2 * oc.g_of(i, j, k) == (
            oc.g_of(i, j) + oc.g_of(i, k) + oc.g_of(j, k) - half
        )
    _report(7, "crystallized double of the solid-torus-bundle gem: 18 "
               "vertices, closed crystallization, chi=0, census shifts and "
               "closed triple relation verified")


def test_criterion_08_identity_suite_and_negative_control():
    for name in catalog_list():
        g = catalog_get(name).graph
        if g.dimension != 4:
            continue
        report = verify_identities(g)
        assert report.passed, (name, report.failures())
    fig2 = catalog_get("fig2_s3xI").graph
    pairs = [list(fig2.edges(c)) for c in fig2.colors]
    (a, b), (c, d) = pairs[0][0], pairs[0][1]
    pairs[0][0], pairs[0][1] = (a, c), (b, d)
    corrupted = ColoredGraph(4, 10, pairs)
    assert not verify_identities(corrupted).passed
    _report(8, "identity harness passes on every catalog entry; a "
               "single-swap corruption fails at least one check")


def test_criterion_09_property_sweeps():
    bounded = []
    for name in catalog_list():
        g = catalog_get(name).graph
        if g.dimension == 4:
            for head in itertools.permutations(range(4)):
                assert (
                    rho_epsilon(g, head + (4,)).rho
                    == rho_epsilon(g, head[::-1] + (4,)).rho
                )
            if not g.is_closed():
                bounded.append(g)
    fig3 = catalog_get("fig3_d3xs1").graph
    bounded.append(interval_product(catalog_get("s2xs1_8").graph))
    bounded.append(interval_product(catalog_get("rp3_8").graph))
    bounded.append(sphere_connector_sum(fig3, 1, fig3, 1))
    for g in bounded:
        counts = census(g)
        for i, j in itertools.combinations(range(4), 2):
            assert counts.g_of(i, j, 4) == (
                counts.g_dot_of(i, j, 4) + counts.boundary_g_of(i, j)
            )
        assert sum(
            counts.boundary_g_of(i, j)
            for i, j in itertools.combinations(range(4), 2)
        ) == 4 * validate(g).h + g.vertex_tally().boundary
    _report(9, "reversal invariance of rho over all 24 orderings on every "
               "catalog gem; boundary census split and summed boundary "
               "cycle relation on every bounded gem incl. construction "
               "outputs")


def test_criterion_10_round_trip_and_json_stability(capsys):
    for name in catalog_list():
        g = catalog_get(name).graph
        text = export_gem(g)
        assert export_gem(parse_gem(text)) == text
    runs = []
    for _ in range(2):
        code = cli_main(["verify", "fig3_d3xs1", "--rank", "1", "--json"])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    json.loads(runs[0])
    _report(10, "byte-stable GEM round trip for every catalog entry; "
                "byte-identical JSON reports across repeated runs")
