"""Property sweeps over random gems and all catalog/construction gems."""

import itertools
import random

from hypothesis import assume, given, settings, strategies as st

from gemkit import (
    ColoredGraph,
    Dipole,
    boundary_graph,
    catalog_get,
    census,
    connected_sum,
    double,
    export_gem,
    face_vector,
    find_one_dipoles,
    parse_gem,
    residue_components,
    rho_epsilon,
    validate,
    verify_identities,
)
from oracles import (
    bfs_component_count,
    bfs_components,
    bfs_regular_component_count,
    oracle_face_vector,
)


def _matching(vertices: list[int], rng: random.Random) -> list[tuple[int, int]]:
    vs = vertices[:]
    rng.shuffle(vs)
    return [(vs[i], vs[i + 1]) for i in range(0, len(vs) - 1, 2)]


@st.composite
def random_gems(draw, dimension: int = 4):
    """Arbitrary well-formed gems: total random matchings below the last
    color, a random partial matching (possibly empty or total) on it."""
    p = draw(st.integers(min_value=1, max_value=5))
    n = 2 * p
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    pairs = [_matching(list(range(1, n + 1)), rng) for _ in range(dimension)]
    matched = draw(st.integers(min_value=0, max_value=p))
    last = _matching(list(range(1, n + 1)), rng)[:matched]
    pairs.append(last)
    return ColoredGraph(dimension, n, pairs)


def _assert_census_matches_oracle(g):
    counts = census(g)
    for size in (1, 2, 3, 4, 5):
        for subset in itertools.combinations(g.colors, size):
            key = frozenset(subset)
            assert counts.g[key] == bfs_component_count(g, subset)
            assert counts.g_dot[key] == bfs_regular_component_count(g, subset)
            assert counts.g[key] >= counts.g_dot[key]


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_census_matches_oracle(g):
    _assert_census_matches_oracle(g)


@st.composite
def boundary_heavy_gems(draw):
    """Gems of up to 60 vertices where at most a quarter of the color-4
    edges exist, so most {i,4}-residues are paths rather than cycles."""
    p = draw(st.integers(min_value=1, max_value=30))
    n = 2 * p
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = [_matching(list(range(1, n + 1)), rng) for _ in range(4)]
    matched = draw(st.integers(min_value=0, max_value=p // 4))
    pairs.append(_matching(list(range(1, n + 1)), rng)[:matched])
    return ColoredGraph(4, n, pairs)


def _assert_boundary_counts_match_subgraphs(g):
    """Boundary cycle counts against BFS on the boundary graph, and per
    component against BFS on each extracted component subgraph."""
    counts = census(g)
    bg = boundary_graph(g)
    for i, j in itertools.combinations(range(g.dimension), 2):
        key = frozenset((i, j))
        assert counts.boundary_g[key] == bfs_component_count(bg.graph, (i, j))
    assert len(counts.component_boundary_g) == bg.component_count()
    for q, per_q in enumerate(counts.component_boundary_g):
        sub = bg.component_subgraph(q)
        for i, j in itertools.combinations(range(g.dimension), 2):
            assert per_q[frozenset((i, j))] == bfs_component_count(sub, (i, j))


@given(boundary_heavy_gems())
@settings(max_examples=60, deadline=None)
def test_census_matches_oracle_on_boundary_heavy_gems(g):
    _assert_census_matches_oracle(g)
    _assert_boundary_counts_match_subgraphs(g)


def _assert_components_match_oracle(g):
    """Listed components against BFS: the same vertex tuples in the same
    order (smallest vertex first) with the same regular flags."""
    for size in range(1, g.dimension + 2):
        for subset in itertools.combinations(g.colors, size):
            expected = [
                (
                    tuple(sorted(comp)),
                    all(g.mate(v, c) is not None for v in comp for c in subset),
                )
                for comp in bfs_components(g, subset)
            ]
            assert [
                (comp.vertices, comp.regular)
                for comp in residue_components(g, subset)
            ] == expected


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_residue_components_match_oracle(g):
    _assert_components_match_oracle(g)


@given(boundary_heavy_gems())
@settings(max_examples=60, deadline=None)
def test_residue_components_match_oracle_on_boundary_heavy_gems(g):
    _assert_components_match_oracle(g)


def _assert_dipoles_match_brute_force(g):
    """A color-c edge {a, b} is a 1-dipole iff a and b lie in different
    BFS components of the other colors and no other color joins them."""
    for color in g.colors:
        rest = [c for c in g.colors if c != color]
        component_of = {
            v: q
            for q, comp in enumerate(bfs_components(g, rest))
            for v in comp
        }
        expected = []
        for a, b in g.edges(color):
            dipole = Dipole(u=a, v=b, color=color)
            separated = component_of[a] != component_of[b] and all(
                g.mate(a, c) != b for c in rest
            )
            assert dipole.verify(g) == separated
            if separated:
                expected.append(dipole)
        assert find_one_dipoles(g, color) == expected


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_dipoles_match_brute_force(g):
    _assert_dipoles_match_brute_force(g)


@given(boundary_heavy_gems())
@settings(max_examples=60, deadline=None)
def test_dipoles_match_brute_force_on_boundary_heavy_gems(g):
    _assert_dipoles_match_brute_force(g)


def test_dipoles_match_brute_force_on_doubles():
    # fig3_d3xs1 has h = 1, so its double has 1-dipoles of color 4 only;
    # fig2_s3xI has h = 2 and its double has them in every color
    for name, colors in (("fig3_d3xs1", [4]), ("fig2_s3xI", range(5))):
        doubled = double(catalog_get(name).graph)
        assert [c for c in doubled.colors if find_one_dipoles(doubled, c)] \
            == list(colors)
        _assert_dipoles_match_brute_force(doubled)


def test_census_matches_oracle_at_scale():
    # far beyond the sizes hypothesis draws: residues merge many labels
    # and the {i,4}-residues include long paths
    n = 2000
    rng = random.Random(2024)
    pairs = [_matching(list(range(1, n + 1)), rng) for _ in range(5)]
    pairs[4] = pairs[4][:800]
    g = ColoredGraph(4, n, pairs)
    assert len(g.boundary_vertices()) == 400
    _assert_census_matches_oracle(g)
    _assert_boundary_counts_match_subgraphs(g)


def test_census_matches_oracle_on_catalog_and_constructions(
    all_entries, bounded_construction_outputs, crystallized_double_fig3,
    fig3, fig4
):
    gems = [e.graph for e in all_entries]
    gems.extend(bounded_construction_outputs.values())
    gems.append(crystallized_double_fig3)
    # structured gems whose residues have many small components, so
    # their labels merge in many different orders
    for base in (fig3, fig4):
        for v in _internal_vertices(base):
            gems.append(connected_sum(base, v, crystallized_double_fig3, 1))
    for g in gems:
        _assert_census_matches_oracle(g)
        if not g.is_closed():
            _assert_boundary_counts_match_subgraphs(g)


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_face_vector_and_validate_match_oracle(g):
    # both are derived from the census counts, so check them against
    # BFS counts directly rather than against the census
    f = oracle_face_vector(g)
    assert face_vector(g).f == f
    full = set(g.colors)
    report = validate(g)
    assert report.connected == (bfs_component_count(g, full) == 1)
    assert report.contracted_per_color == tuple(
        bfs_component_count(g, full - {c}) == 1 for c in g.colors
    )
    assert report.f0 == f[0]


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_round_trip_identity(g):
    text = export_gem(g)
    assert parse_gem(text) == g
    assert export_gem(parse_gem(text)) == text


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_regular_equals_total_without_last_color(g):
    counts = census(g)
    for size in (1, 2, 3, 4):
        for subset in itertools.combinations(range(g.dimension), size):
            key = frozenset(subset)
            assert counts.g[key] == counts.g_dot[key]


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_rho_reversal_invariance(g):
    for head in itertools.permutations(range(4)):
        assert (
            rho_epsilon(g, head + (4,)).rho
            == rho_epsilon(g, head[::-1] + (4,)).rho
        )


def _internal_vertices(g):
    return [v for v in g.vertices if g.mate(v, g.dimension) is not None]


@st.composite
def random_manifold_gems(draw):
    """Bounded manifold gems: iterated connected sums of a bounded catalog
    gem with closed catalog gems at random internal vertices.  Summing
    with a closed gem is always geometrically valid (every labeled vertex
    of its deleted simplex is interior), so the result still represents a
    manifold with the same boundary."""
    from gemkit import catalog_get, connected_sum, crystallize_double

    closed = [
        catalog_get("fig1_s4").graph,
        catalog_get("s4_order2").graph,
        crystallize_double(catalog_get("fig3_d3xs1").graph),
    ]
    bounded = ["fig2_s3xI", "fig3_d3xs1", "fig4_boundary16", "d4_order2"]
    out = catalog_get(draw(st.sampled_from(bounded))).graph
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        other = draw(st.sampled_from(closed))
        if not _internal_vertices(out):
            break
        v1 = draw(st.sampled_from(_internal_vertices(out)))
        v2 = draw(st.sampled_from(_internal_vertices(other)))
        out = connected_sum(out, v1, other, v2)
    return out


@given(random_manifold_gems())
@settings(max_examples=60, deadline=None)
def test_boundary_split_identity_on_manifold_gems(g):
    # interior/boundary split of the mixed cycle counts holds on every
    # manifold gem with boundary, crystallization or not
    counts = census(g)
    assert not g.is_closed()
    for i, j in itertools.combinations(range(4), 2):
        assert counts.g_of(i, j, 4) == (
            counts.g_dot_of(i, j, 4) + counts.boundary_g_of(i, j)
        )


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_boundary_graph_well_formed(g):
    bg = boundary_graph(g)
    if bg.is_empty():
        assert g.is_closed()
        return
    assert bg.graph.vertex_count == len(g.boundary_vertices())
    assert bg.graph.is_closed()
    assert sum(len(c) for c in bg.components) == bg.graph.vertex_count


def test_boundary_identities_on_catalog_and_constructions(
    all_entries, bounded_construction_outputs
):
    """Interior/boundary census split and the summed boundary cycle
    relation on every bounded gem touched by the test run."""
    gems = {
        e.name: e.graph for e in all_entries if not e.graph.is_closed()
    }
    gems.update(bounded_construction_outputs)
    for name, g in gems.items():
        counts = census(g)
        report = validate(g)
        for i, j in itertools.combinations(range(4), 2):
            assert counts.g_of(i, j, 4) == (
                counts.g_dot_of(i, j, 4) + counts.boundary_g_of(i, j)
            ), name
        assert sum(
            counts.boundary_g_of(i, j)
            for i, j in itertools.combinations(range(4), 2)
        ) == 4 * report.h + g.vertex_tally().boundary, name


def test_rho_reversal_invariance_on_catalog(all_entries):
    for entry in all_entries:
        g = entry.graph
        if g.dimension != 4:
            continue
        for head in itertools.permutations(range(4)):
            assert (
                rho_epsilon(g, head + (4,)).rho
                == rho_epsilon(g, head[::-1] + (4,)).rho
            ), entry.name


def _ledger_families(report):
    checked = {c.name for c in report.checks}
    skipped = {s.name for s in report.skipped}
    assert not checked & skipped
    return checked | skipped


@given(random_gems())
@settings(max_examples=60, deadline=None)
def test_bounded_ledger_names_every_family(g):
    """A bounded 4-gem's identity ledger checks or skips every family of
    a bounded crystallization's ledger, crystallization or not."""
    assume(not g.is_closed())
    crystal = verify_identities(catalog_get("fig3_d3xs1").graph)
    assert not crystal.skipped
    assert _ledger_families(verify_identities(g)) == _ledger_families(crystal)
