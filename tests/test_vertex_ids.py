"""The shared vertex-id table: every way of building a graph stores one
int object per vertex number, and sharing changes no value, equality or
hash.  Ints up to 256 are cached by the interpreter anyway, so the gems
here have several hundred vertices."""

import functools
import random
import threading

import pytest

import gemkit.core
from gemkit import (
    ColoredGraph,
    boundary_graph,
    catalog_get,
    connected_sum,
    crystallize_double,
    double,
    export_gem,
    interval_product,
    parse_gem,
    sphere_connector_sum,
)
from oracles import colored_graph_reference, pair_rebuild


def _random_pairs(n, matched, rng, d=4):
    """Random matchings of 1..n on colors 0..d-1 and `matched` edges of
    color d, each vertex number a fresh int object as a parser makes."""
    pairs = []
    for color in range(d + 1):
        vs = [int(str(v)) for v in range(1, n + 1)]
        rng.shuffle(vs)
        count = n // 2 if color < d else matched
        pairs.append([(vs[2 * i], vs[2 * i + 1]) for i in range(count)])
    return pairs


def _text(n, matched, seed):
    return export_gem(
        ColoredGraph(4, n, _random_pairs(n, matched, random.Random(seed)))
    )


def _one_object_per_number(g):
    entries = [x for mate in g._mates for x in mate if x]
    return len({id(x) for x in entries}) == len(set(entries))


@functools.cache
def _graphs():
    """One graph from every builder, each with entries above 256."""
    rng = random.Random(7)
    parsed = parse_gem(_text(600, 150, 1))
    internal = [v for v in parsed.vertices if parsed.mate(v, 4)]
    bg = boundary_graph(parsed)
    largest = max(range(bg.component_count()),
                  key=lambda q: len(bg.components[q]))
    fig3 = catalog_get("fig3_d3xs1").graph
    chain = fig3
    for _ in range(16):  # h = 17 summands, 266 vertices
        chain = sphere_connector_sum(
            chain, rng.choice([v for v in chain.vertices if chain.mate(v, 4)]),
            fig3, 1,
        )
    s2xs1 = catalog_get("s2xs1_8").graph
    closed = s2xs1
    for _ in range(15):  # a closed 3-crystallization of 98 vertices
        closed = connected_sum(closed, 1, s2xs1, 1)
    return {
        "parse_gem": parsed,
        "ColoredGraph": ColoredGraph(4, 500, _random_pairs(500, 200, rng)),
        "_from_mates": ColoredGraph._from_mates(
            4, [list(mate) for mate in parsed._mates]
        ),
        "double": double(parsed),
        "connected_sum": connected_sum(
            parsed, internal[0], parsed, internal[-1]
        ),
        "sphere_connector_sum": chain,
        "interval_product": interval_product(closed),
        "crystallize_double": crystallize_double(chain),
        "boundary_graph": bg.graph,
        "component_subgraph": bg.component_subgraph(largest),
    }


BUILDERS = [
    "parse_gem", "ColoredGraph", "_from_mates", "double", "connected_sum",
    "sphere_connector_sum", "interval_product", "crystallize_double",
    "boundary_graph", "component_subgraph",
]


@pytest.mark.parametrize("builder", BUILDERS)
def test_equal_entries_are_one_object(builder):
    g = _graphs()[builder]
    assert g.vertex_count > 256
    assert _one_object_per_number(g)


@pytest.mark.parametrize("builder", BUILDERS)
def test_equality_and_hash_match_the_pair_built_twin(builder):
    g = _graphs()[builder]
    twin = pair_rebuild(g)
    assert g == twin and hash(g) == hash(twin)
    # the arrays of the pair-by-pair reference hold ints of their own
    reference = colored_graph_reference(
        g.dimension, g.vertex_count, [g.edges(c) for c in g.colors]
    )
    assert g._mates == reference
    assert hash(g) == hash((g.dimension, g.vertex_count, reference))


def _entries_are_table_objects(g):
    table = gemkit.core._ids(0)
    return all(x is table[x] for mate in g._mates for x in mate)


def _build(builder):
    """A freshly parsed input through one builder; the input of
    `crystallize_double` is the 266-vertex connector chain."""
    if builder == "crystallize_double":
        chain = parse_gem(export_gem(_graphs()["sphere_connector_sum"]))
        return crystallize_double(chain)
    parsed = parse_gem(_text(600, 150, 1))
    if builder == "parse_gem":
        return parsed
    if builder == "double":
        return double(parsed)
    if builder == "connected_sum":
        internal = [v for v in parsed.vertices if parsed.mate(v, 4)]
        return connected_sum(parsed, internal[0], parsed, internal[-1])
    return boundary_graph(parsed).graph


@pytest.mark.parametrize("grown", [False, True], ids=["grows", "grown"])
@pytest.mark.parametrize(
    "builder",
    ["parse_gem", "double", "connected_sum", "boundary_graph",
     "crystallize_double"],
)
def test_entries_are_the_tables_own_objects(monkeypatch, builder, grown):
    """Every entry of a built graph is the vertex-id table's object, not
    merely one object per number.  The splice copies its first graph's
    arrays as they are, so this holds only because every graph's arrays
    hold the table's objects and the table keeps them when it grows, as
    the double and the sum of a graph with itself make it grow from a
    table just long enough for the input."""
    monkeypatch.setattr(gemkit.core, "_ID_TABLE", (0,))
    if grown:
        gemkit.core._ids(5000)
    g = _build(builder)
    assert g.vertex_count > 256
    assert _entries_are_table_objects(g)
    assert len(gemkit.core._ids(0)) == (5000 if grown else {
        "parse_gem": 601, "boundary_graph": 601, "double": 1201,
        "connected_sum": 1201, "crystallize_double": 533,
    }[builder])


def test_growing_the_table_keeps_the_objects_it_handed_out(monkeypatch):
    monkeypatch.setattr(gemkit.core, "_ID_TABLE", (0,))
    parsed = parse_gem(_text(600, 150, 1))
    gemkit.core._ids(5000)
    assert _entries_are_table_objects(parsed)


def test_from_mates_keeps_the_objects_it_is_given():
    parsed = _graphs()["parse_gem"]
    rebuilt = _graphs()["_from_mates"]
    assert all(
        x is y for old, new in zip(parsed._mates, rebuilt._mates)
        for x, y in zip(old, new)
    )


def test_table_holds_each_number_at_its_index():
    table = gemkit.core._ids(1000)
    assert len(table) >= 1000 and table[:1000] == tuple(range(1000))
    assert gemkit.core._ids(10) is table


def test_eight_threads_parsing_rising_sizes_match_sequential(monkeypatch):
    texts = [_text(n, n // 4, n) for n in range(300, 2700, 300)]
    expected = [parse_gem(text) for text in texts]
    # every thread starts from an empty table, so they grow it together
    monkeypatch.setattr(gemkit.core, "_ID_TABLE", (0,))
    barrier = threading.Barrier(len(texts), timeout=60)
    results = [None] * len(texts)

    def run(i):
        barrier.wait()
        results[i] = parse_gem(texts[i])

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(texts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
    assert [export_gem(g) for g in results] == texts
    assert all(_one_object_per_number(g) for g in results)
