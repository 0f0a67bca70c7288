"""Ground truth from small gems.

Two 8-vertex bounded 4-crystallizations that the benchmark draws as
`random-033` and `random-108`, on which `regular_genus` reports that
its genus formulas disagree although neither is a manifold gem (ROADMAP
item 1), and every 4-crystallization with at most 4 vertices, one per
class up to relabeling the vertices with the colors fixed (item 14).
The disagreement error is the one that, by its docstring, signals an
encoding bug; the tests that ask for none of it are strict expected
failures until item 1's manifold gate lands.
"""

import itertools
from pathlib import Path

import pytest

from gemkit import (
    ColoredGraph,
    GemError,
    census,
    crystallize_double,
    double,
    load_gem,
    regular_genus,
    validate,
)
from gemkit.constructions import _contract
from oracles import (
    bfs_component_count,
    bfs_regular_component_count,
    contract_reference,
    crystallize_double_reference,
    is_crystallization_reference,
    tiny_gems,
)
from test_verify import assert_ledger_matches_reference

DATA = Path(__file__).parent / "data"
FIXTURES = ["random-033", "random-108"]


def _formulas_disagree(g) -> bool:
    try:
        regular_genus(g)
    except GemError as exc:
        return str(exc).startswith("genus formulas disagree")
    return False


@pytest.fixture(scope="module", params=FIXTURES)
def fixture_gem(request):
    return load_gem(DATA / f"{request.param}.gem")


def test_fixture_census_matches_oracle(fixture_gem):
    g = fixture_gem
    counts = census(g)
    for size in range(1, 6):
        for colors in itertools.combinations(range(5), size):
            key = frozenset(colors)
            assert counts.g[key] == bfs_component_count(g, colors)
            assert counts.g_dot[key] == bfs_regular_component_count(g, colors)


def test_fixture_is_a_bounded_crystallization_with_one_boundary_component(
    fixture_gem,
):
    report = validate(fixture_gem)
    assert (report.closed, report.is_crystallization, report.h) == (
        False, True, 1
    )
    assert is_crystallization_reference(fixture_gem)


def test_fixture_double_crystallizes_as_its_reference(fixture_gem):
    out = crystallize_double(fixture_gem)
    assert out.vertex_count == 14
    assert out == crystallize_double_reference(fixture_gem)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_fixture_genus_formulas_agree(fixture_gem):
    assert not _formulas_disagree(fixture_gem)


def _least_relabeling(g):
    """The edge lists of g, per color, under the relabeling of its
    vertices that makes them least."""
    vertices = range(1, g.vertex_count + 1)
    edges = [g.edges(c) for c in g.colors]
    relabelings = (
        dict(zip(vertices, images))
        for images in itertools.permutations(vertices)
    )
    return min(
        tuple(
            tuple(sorted(tuple(sorted((to[a], to[b]))) for a, b in pairs))
            for pairs in edges
        )
        for to in relabelings
    )


@pytest.fixture(scope="module")
def gem_classes():
    """One 4-gem per class of at most 4 vertices up to relabeling the
    vertices: the least relabeling of each labeled gem stands for its
    class."""
    classes = sorted({_least_relabeling(g) for g in tiny_gems()})
    return [ColoredGraph(4, 2 * len(edges[0]), edges) for edges in classes]


def _bounded_crystallizations(gem_classes):
    return [
        g for g in gem_classes
        if validate(g).is_crystallization and not g.is_closed()
    ]


def test_corpus_class_counts(gem_classes):
    """Bounded 1 + 44 and closed 1 + 35 crystallization classes on 2 + 4
    vertices, where `validate` and the reference predicate agree on
    every class."""
    counts = {}
    for g in gem_classes:
        crystallization = validate(g).is_crystallization
        assert crystallization == is_crystallization_reference(g)
        if crystallization:
            key = (g.is_closed(), g.vertex_count)
            counts[key] = counts.get(key, 0) + 1
    assert counts == {
        (False, 2): 1, (False, 4): 44, (True, 2): 1, (True, 4): 35
    }


def test_corpus_ledger_matches_reference(gem_classes):
    """Every class, closed or bounded, a crystallization or not."""
    for g in gem_classes:
        assert_ledger_matches_reference(g)


def test_corpus_doubles_crystallize_as_their_reference(gem_classes):
    for g in _bounded_crystallizations(gem_classes):
        assert crystallize_double(g) == crystallize_double_reference(g)
        assert _contract(double(g)) == contract_reference(double(g))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_corpus_genus_formulas_agree(gem_classes):
    bounded = _bounded_crystallizations(gem_classes)
    assert not any(map(_formulas_disagree, bounded))
