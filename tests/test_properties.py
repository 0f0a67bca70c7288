"""Property sweeps over random gems and all catalog/construction gems."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import gemkit.core
import gemkit.genus
from gemkit import (
    ColoredGraph,
    Dipole,
    GemError,
    boundary_graph,
    catalog_get,
    census,
    connected_sum,
    double,
    enumerate_schemes,
    export_gem,
    face_vector,
    find_one_dipoles,
    parse_gem,
    regular_genus,
    remove_one_dipole,
    residue_components,
    rho_epsilon,
    rho_epsilon_census,
    rho_epsilon_via_double,
    validate,
    verify_identities,
)
from gemkit.constructions import _contract
from oracles import (
    bfs_component_count,
    bfs_components,
    bfs_is_bipartite,
    bfs_regular_component_count,
    census_join_takes,
    colored_graph_reference,
    contract_reference,
    export_reference,
    is_crystallization_reference,
    oracle_euler_characteristic,
    oracle_face_vector,
    pair_rebuild,
    regular_genus_reference,
    remove_one_dipole_reference,
    tiny_gems,
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
    for size in range(1, g.dimension + 2):
        for subset in itertools.combinations(g.colors, size):
            key = frozenset(subset)
            assert counts.g[key] == bfs_component_count(g, subset)
            assert counts.g_dot[key] == bfs_regular_component_count(g, subset)
            assert counts.g[key] >= counts.g_dot[key]


@given(st.integers(min_value=1, max_value=6).flatmap(random_gems))
@settings(max_examples=150, deadline=None)
def test_census_matches_oracle(g):
    # the lattice over each pair is as deep as d - 1 colors; a bounded
    # gem of dimension 1 has no boundary graph, so no census
    assume(g.is_closed() or g.dimension >= 2)
    _assert_census_matches_oracle(g)


@st.composite
def boundary_heavy_gems(draw, dimension: int = 4):
    """Gems of up to 60 vertices where at most a quarter of the last
    color's edges exist, so most {i,d}-residues are paths rather than
    cycles."""
    p = draw(st.integers(min_value=1, max_value=30))
    n = 2 * p
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = [_matching(list(range(1, n + 1)), rng) for _ in range(dimension)]
    matched = draw(st.integers(min_value=0, max_value=p // 4))
    pairs.append(_matching(list(range(1, n + 1)), rng)[:matched])
    return ColoredGraph(dimension, n, pairs)


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


@given(st.integers(min_value=2, max_value=6).flatmap(boundary_heavy_gems))
@settings(max_examples=120, deadline=None)
def test_census_matches_oracle_on_boundary_heavy_gems(g):
    _assert_census_matches_oracle(g)
    _assert_boundary_counts_match_subgraphs(g)


def test_every_tiny_gem_census_and_round_trip():
    """All 4-gems on 2 and 4 vertices: 2 on two vertices, and 3 perfect
    matchings for each of colors 0..3 times 10 partial ones for color 4
    on four.  Their residue components and 1-dipoles are checked too."""
    gems = list(tiny_gems())
    assert len(gems) == 2 + 3**4 * 10
    assert len(set(gems)) == len(gems)
    for g in gems:
        _assert_census_matches_oracle(g)
        _assert_components_match_oracle(g)
        _assert_dipoles_match_brute_force(g)
        if not g.is_closed():
            _assert_boundary_counts_match_subgraphs(g)
        text = export_gem(g)
        assert text == export_reference(g)
        assert parse_gem(text) == g


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


@given(st.integers(min_value=1, max_value=6).flatmap(random_gems))
@settings(max_examples=60, deadline=None)
def test_residue_components_match_oracle(g):
    _assert_components_match_oracle(g)


@given(st.integers(min_value=1, max_value=6).flatmap(boundary_heavy_gems))
@settings(max_examples=60, deadline=None)
def test_residue_components_match_oracle_on_boundary_heavy_gems(g):
    _assert_components_match_oracle(g)


def _outcome(construct, *args):
    """A construction's graph, or its error message."""
    try:
        return construct(*args)
    except GemError as exc:
        return f"GemError: {exc}"


def _assert_dipoles_match_brute_force(g):
    """A color-c edge {a, b} is a 1-dipole iff a and b lie in different
    BFS components of the other colors and no other color joins them.
    Removing each 1-dipole gives the graph, or the error, of the pair
    rebuild."""
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
                assert _outcome(remove_one_dipole, g, dipole) == _outcome(
                    remove_one_dipole_reference, g, dipole
                )
        assert find_one_dipoles(g, color) == expected


@given(st.integers(min_value=1, max_value=6).flatmap(random_gems))
@settings(max_examples=60, deadline=None)
def test_dipoles_match_brute_force(g):
    _assert_dipoles_match_brute_force(g)


@given(st.integers(min_value=1, max_value=6).flatmap(boundary_heavy_gems))
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


@st.composite
def closed_connected_gems(draw, dimension):
    """Connected closed gems of up to 16 vertices: a random perfect
    matching in every color."""
    n = 2 * draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = [
        _matching(list(range(1, n + 1)), rng) for _ in range(dimension + 1)
    ]
    g = ColoredGraph(dimension, n, pairs)
    assume(bfs_component_count(g, g.colors) == 1)
    return g


@given(st.integers(min_value=2, max_value=5).flatmap(closed_connected_gems))
@settings(max_examples=300, deadline=None)
def test_contraction_matches_dipole_moves_until_none_is_left(g):
    """`_contract` takes its step counts from the census; the reference,
    color by color, removes the first listed 1-dipole until none is
    left.  The result is a crystallization of the same Euler
    characteristic and bipartiteness."""
    out = _contract(g)
    assert out == contract_reference(g)
    assert out.is_closed() and is_crystallization_reference(out)
    assert oracle_euler_characteristic(out) == oracle_euler_characteristic(g)
    assert bfs_is_bipartite(out) == bfs_is_bipartite(g)


def _scale_gem():
    """A random bounded 4-gem far beyond the sizes hypothesis draws:
    residues merge many labels and the {i,4}-residues include long
    paths."""
    n = 2000
    rng = random.Random(2024)
    pairs = [_matching(list(range(1, n + 1)), rng) for _ in range(5)]
    pairs[4] = pairs[4][:800]
    g = ColoredGraph(4, n, pairs)
    assert len(g.boundary_vertices()) == 400
    return g


def test_census_matches_oracle_at_scale():
    g = _scale_gem()
    _assert_census_matches_oracle(g)
    _assert_boundary_counts_match_subgraphs(g)


def test_export_matches_reference_writer_at_scale():
    g = _scale_gem()
    assert export_gem(g) == export_reference(g)


def _cycle_pairs(order):
    """Colors a and b that alternate along the cycle `order`, so the
    {a, b}-residue is that one cycle."""
    n = len(order)
    return (
        [(order[k], order[k + 1]) for k in range(0, n, 2)],
        [(order[k + 1], order[(k + 2) % n]) for k in range(0, n, 2)],
    )


def _long_cycle_gem(n, seed, matched):
    """A 4-gem whose {0, 1}- and {2, 3}-residues are each one cycle
    through all n vertices; the other pairs are random, and color 4 has
    `matched` random edges."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(2):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        pairs.extend(_cycle_pairs(order))
    pairs.append(_matching(list(range(1, n + 1)), rng)[:matched])
    return ColoredGraph(4, n, pairs)


def _two_cycle_gem(n, seed, matched):
    """A 4-gem where colors 1 and 3 repeat colors 0 and 2 on all but a
    tenth of their edges, so the {0, 1}- and {2, 3}-residues are
    mostly 2-cycles; color 4 has `matched` random edges."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(2):
        first = _matching(list(range(1, n + 1)), rng)
        moved = rng.sample(range(len(first)), len(first) // 10)
        ends = [v for k in moved for v in first[k]]
        second = [first[k] for k in range(len(first)) if k not in moved]
        # the moved ends are matched again at random, which keeps a few
        # of them as 2-cycles
        second += _matching(ends, rng)
        pairs += [first, second]
    pairs.append(_matching(list(range(1, n + 1)), rng)[:matched])
    return ColoredGraph(4, n, pairs)


def _assert_pair_labels_match_bfs(g):
    """Each pair's walk against BFS: the same partition, and labels
    numbered first by path, in the order of each path's smaller end,
    then by cycle, in the order of each cycle's smallest vertex."""
    boundary = g.boundary_vertices()
    for i, j in itertools.combinations(g.colors, 2):
        ends = boundary if j == g.dimension else ()
        labels, starts = gemkit.core._pair_labels(
            g._mates[i], g._mates[j], ends
        )
        assert len(labels) == g.vertex_count + 1 and labels[0] == 0
        comps = bfs_components(g, (i, j))
        end_set = set(ends)
        paths = sorted(
            (min(end_set & comp), comp) for comp in comps if end_set & comp
        )
        cycles = sorted(
            (min(comp), comp) for comp in comps if not end_set & comp
        )
        assert starts == [start for start, _ in paths + cycles]
        for k, (_, comp) in enumerate(paths + cycles, 1):
            assert {labels[v] for v in comp} == {k}


LARGE_GEMS = {
    "long-cycles-closed": lambda: _long_cycle_gem(2000, 31, 1000),
    "long-cycles-bounded": lambda: _long_cycle_gem(2000, 32, 700),
    "two-cycles-closed": lambda: _two_cycle_gem(2400, 33, 1200),
    "two-cycles-bounded": lambda: _two_cycle_gem(2400, 34, 900),
    "boundary-paths": lambda: _long_cycle_gem(1600, 35, 120),
    "random-bounded": lambda: ColoredGraph(
        4, 3000, [
            _matching(list(range(1, 3001)), random.Random(36 + c))[
                : 1500 if c < 4 else 1100
            ]
            for c in range(5)
        ],
    ),
}


@pytest.mark.parametrize("name", LARGE_GEMS)
def test_census_matches_oracle_on_large_gems(census_work, name):
    """Gems with thousands of vertices, where some census joins stop
    long before the end of their color's edge list, all checked against
    BFS: the edges each join takes, the pair walks, every count and the
    boundary counts."""
    g = LARGE_GEMS[name]()
    assert g.is_closed() == name.endswith("closed")
    predicted = census_join_takes(g)
    _, takes = census_work
    gemkit.core._residue_counts(g)
    assert takes == [(count, taken) for _, count, taken in predicted]
    ends = [(taken, len(g.edges(colors[-1]))) for colors, _, taken in predicted]
    assert any(taken < total for taken, total in ends)
    if name.startswith("two-cycles"):
        # about n/4 labels per root {0, 1}: some join over it takes a
        # whole list
        assert any(taken == total for taken, total in ends)
    _assert_census_matches_oracle(g)
    _assert_pair_labels_match_bfs(g)
    if not g.is_closed():
        _assert_boundary_counts_match_subgraphs(g)


def _full_union_find(edges, count):
    """The map of labels 1..count to their classes under every edge,
    classes numbered by smallest label, and the class count."""
    parent = list(range(count + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    roots = {}
    renumber = [0] + [
        roots.setdefault(find(x), len(roots) + 1) for x in range(1, count + 1)
    ]
    return renumber, len(roots)


@given(
    st.integers(min_value=2, max_value=30).flatmap(
        lambda count: st.tuples(
            st.just(count),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=count),
                    st.integers(min_value=1, max_value=count),
                ),
                max_size=90,
            ),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_join_stops_early_with_the_full_partition(case):
    """`_join` reads its edges only until one label is left, and gives
    the partition of a union-find over all of them."""
    count, edges = case
    consumed = []

    def source():
        for edge in edges:
            consumed.append(edge)
            yield edge

    assert gemkit.core._join(source(), count) == _full_union_find(
        edges, count
    )
    connected = [
        m for m in range(len(edges) + 1)
        if _full_union_find(edges[:m], count)[1] == 1
    ]
    # stopped at the edge that left one label, or read every edge
    assert len(consumed) == (connected[0] if connected else len(edges))


def _connected_pair_gems():
    """Small gems of dimension 1..6 whose color pairs mostly have one
    residue: the order-2 gems, closed and with both vertices on the
    boundary, and 4-vertex gems that give color c the perfect matching
    c mod 3, closed and with one last-color edge.  Two distinct perfect
    matchings of 4 vertices form one 4-cycle, so only the pairs {c, c + 3}
    are split, and every set over them with a third color is connected."""
    matchings = [[(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]]
    for d in range(1, 7):
        below = [matchings[c % 3] for c in range(d)]
        yield ColoredGraph(d, 2, [[(1, 2)]] * (d + 1))
        yield ColoredGraph(d, 4, below + [matchings[d % 3]])
        if d >= 2:
            # a bounded gem of dimension 1 has no boundary graph
            yield ColoredGraph(d, 2, [[(1, 2)]] * d + [[]])
            yield ColoredGraph(d, 4, below + [[(1, 3)]])


def test_census_matches_oracle_on_connected_pairs():
    """The census counts a set over a connected one as one component
    without a join; with color d that component is regular iff the gem
    is closed, and both outcomes occur here."""
    outcomes = set()
    for g in _connected_pair_gems():
        _assert_census_matches_oracle(g)
        _assert_components_match_oracle(g)
        if not g.is_closed():
            _assert_boundary_counts_match_subgraphs(g)
        counts = census(g)
        for size in range(3, g.dimension + 2):
            for colors in itertools.combinations(g.colors, size):
                if g.dimension in colors and counts.g_of(*colors) == 1:
                    outcomes.add((g.is_closed(), counts.g_dot_of(*colors)))
    assert outcomes == {(True, 1), (False, 0)}


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


@given(st.integers(min_value=1, max_value=5).flatmap(random_gems))
@settings(max_examples=300, deadline=None)
def test_validate_reads_f0_and_crystallization_from_hat_counts(g):
    # validate drops the conditions that follow from the others: f0 is
    # the sum of the counts after dropping one color, and the gem is
    # connected when one of them is 1
    assume(g.is_closed() or g.dimension >= 2)  # else no boundary graph
    report = validate(g)
    assert report.f0 == face_vector(g).f[0]
    assert report.is_crystallization == is_crystallization_reference(g)


@given(st.integers(min_value=1, max_value=5).flatmap(random_gems))
@settings(max_examples=100, deadline=None)
def test_round_trip_identity(g):
    text = export_gem(g)
    assert text == export_reference(g)
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


@given(st.integers(min_value=2, max_value=6).flatmap(random_gems))
@settings(max_examples=100, deadline=None)
def test_scheme_table_matches_per_scheme_formulas(g):
    """`regular_genus` and the ledger's genus-formula-agreement rows read
    one shared scheme table; both match the public single-scheme
    formulas evaluated scheme by scheme.  Random gems of dimension 2..6
    are closed or bounded; the 4-gems among them are closed, bounded
    non-crystallizations, and bounded crystallizations, most of them
    not manifolds (the formulas disagree on those).  The ledger is
    stated for 4-gems only."""
    try:
        expected = regular_genus_reference(g)
    except GemError as exc:
        with pytest.raises(GemError) as raised:
            regular_genus(g)
        assert str(raised.value) == str(exc)
    else:
        assert regular_genus(g) == expected
    if g.dimension != 4:
        return
    rows = [
        c for c in verify_identities(g).checks
        if c.name == "genus-formula-agreement"
    ]
    crystal = not g.is_closed() and validate(g).is_crystallization
    assert len(rows) == (12 if crystal else 0)
    for check, scheme in zip(rows, enumerate_schemes(4)):
        embedding = rho_epsilon(g, scheme).rho
        assert check.left == (embedding, embedding)
        assert check.right == (
            rho_epsilon_via_double(g, scheme),
            rho_epsilon_census(g, scheme),
        )


@pytest.mark.parametrize("kernel", ["_embedding", "_via_double", "_via_census"])
def test_each_genus_formula_is_cross_checked(monkeypatch, kernel):
    """Shifting any one formula's genus by 1 (its kernel's twice the
    genus by 2) makes `regular_genus` raise and fails every
    genus-formula-agreement row: no two sides of the comparison come
    from one evaluation."""
    original = getattr(gemkit.genus, kernel)

    def shifted(*args):
        value = original(*args)
        if kernel == "_embedding":
            profile, twice = value
            return profile._replace(rho=profile.rho + 1), twice + 2
        return value + 2

    monkeypatch.setattr(gemkit.genus, kernel, shifted)
    g = parse_gem(export_gem(catalog_get("fig3_d3xs1").graph))
    with pytest.raises(GemError, match="genus formulas disagree"):
        regular_genus(g)
    failures = verify_identities(g).failures()
    assert [c.name for c in failures] == ["genus-formula-agreement"] * 12


@st.composite
def near_gem_pair_lists(draw):
    """(d, n, pairs) for the pair constructor: random matchings, total
    below d and partial in d (n is sometimes odd), then up to three
    edits in any color: a loop, a repeated pair, a reversed repeat, a
    vertex out of range or a bool vertex, each replacing a pair (always
    below d) or appending one, or the deletion of a pair."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.sampled_from([1, 2, 2, 3, 4, 4, 6, 6]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vertices = list(range(1, n + 1))
    pairs = [_matching(vertices, rng) for _ in range(d)]
    pairs.append(_matching(vertices, rng)[: draw(st.integers(0, n // 2))])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        color = draw(st.integers(min_value=0, max_value=d))
        row = pairs[color]
        edit = draw(st.sampled_from(
            ["loop", "repeat", "reverse", "range", "bool", "delete"]
        ))
        if edit == "delete" or edit in ("repeat", "reverse") and not row:
            if row:
                row.pop(rng.randrange(len(row)))
            continue
        if edit == "loop":
            v = draw(st.integers(min_value=1, max_value=n))
            pair = (v, v)
        elif edit in ("range", "bool"):
            far = draw(st.sampled_from(
                [-1, 0, n + 1] if edit == "range" else [True, False]
            ))
            near = draw(st.integers(min_value=1, max_value=n))
            pair = draw(st.sampled_from([(far, near), (near, far)]))
        else:
            a, b = rng.choice(row)
            pair = (a, b) if edit == "repeat" else (b, a)
        if row and (color < d or draw(st.booleans())):
            row[rng.randrange(len(row))] = pair
        else:
            row.append(pair)
    return d, n, pairs


@given(near_gem_pair_lists())
@settings(max_examples=300, deadline=None)
def test_pair_constructor_matches_reference(case):
    """The pair constructor raises exactly when the reference checks do,
    with the same message, and otherwise stores the same arrays, which
    `_from_mates` accepts as the same graph."""
    d, n, pairs = case
    try:
        expected = colored_graph_reference(d, n, pairs)
    except GemError as exc:
        with pytest.raises(GemError) as raised:
            ColoredGraph(d, n, pairs)
        assert str(raised.value) == str(exc)
        return
    g = ColoredGraph(d, n, pairs)
    assert g._mates == expected
    assert ColoredGraph._from_mates(d, expected) == g


@given(random_gems(), st.data())
@settings(max_examples=200, deadline=None)
def test_from_mates_rejects_arrays_that_are_no_pairing(g, data):
    """One edit to one array of a gem: a fixed point, an unmatched
    vertex below the last color, a mate that does not map back, an
    entry out of range or a wrong length."""
    mates = [list(mate) for mate in g._mates]
    assert ColoredGraph._from_mates(g.dimension, mates) == g
    n = g.vertex_count
    color = data.draw(st.sampled_from(g.colors))
    mate = mates[color]
    v = data.draw(st.integers(min_value=1, max_value=n))
    edits = ["fixed", "range"]
    if color < g.dimension:
        edits.append("unmatched")
    if color > 0:
        # color 0 sets the vertex count the others are measured by
        edits.append("length")
    if n > 2:
        edits.append("one-way")
    edit = data.draw(st.sampled_from(edits))
    if edit == "fixed":
        mate[v] = v
    elif edit == "unmatched":
        mate[mate[v]] = mate[v] = 0
    elif edit == "one-way":
        others = [x for x in g.vertices if x not in (v, mate[v])]
        mate[v] = data.draw(st.sampled_from(others))
    elif edit == "range":
        mate[v] = data.draw(st.sampled_from([-1, n + 1]))
    else:
        mate.append(0)
    message = f"^color {color}: mate array is no pairing$"
    with pytest.raises(GemError, match=message):
        ColoredGraph._from_mates(g.dimension, mates)


@given(random_gems(), random_gems(), st.data())
@settings(max_examples=60, deadline=None)
def test_constructions_equal_their_pair_rebuild(g1, g2, data):
    """Graphs built from involution arrays equal the pair constructor's
    graphs on their edge lists."""
    outputs = []
    if not g1.is_closed():
        bg = boundary_graph(g1)
        outputs += [double(g1), bg.graph]
        outputs += [bg.component_subgraph(q)
                    for q in range(bg.component_count())]
    internal1, internal2 = _internal_vertices(g1), _internal_vertices(g2)
    if internal1 and internal2:
        outputs.append(connected_sum(
            g1, data.draw(st.sampled_from(internal1)),
            g2, data.draw(st.sampled_from(internal2)),
        ))
    for out in outputs:
        assert out == pair_rebuild(out)
