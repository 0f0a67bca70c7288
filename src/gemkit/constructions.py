"""Graph constructions: doubling, dipole moves, connected sums, products.

All constructions are pure: they take immutable graphs and return new
immutable graphs, so any of them may run concurrently on shared inputs.
`double` is computed once per graph object and shared, like the
analyses in `core`; those memo writes are idempotent, so concurrent
first calls are safe too.

The constructions write involution arrays, not pair lists.  Every
splice is one weld (`_weld`): a connected sum welds the disjoint union
at the two summing vertices, `remove_one_dipole` welds a copy of the
graph's arrays at the dipole's endpoints, and the contraction behind
`crystallize_double` welds one copy of the double's arrays once per
cancelled dipole.  The welded vertices become fixed points, and one
compaction (`_compact`) renumbers the rest to 1..n in vertex order,
which keeps file exports stable.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import (
    ColoredGraph,
    GemError,
    _array_labels,
    _boundary,
    _census_plan,
    _ids,
    _is_index,
    _labels,
    _per_graph,
    _renumbered,
    _require,
    _vertex_ids,
    census,
    validate,
)


@_per_graph
def double(g: ColoredGraph) -> ColoredGraph:
    """Join two copies of a gem along their boundary.

    Copy 1 keeps the original vertex numbers; copy 2 is shifted by n.
    Each boundary vertex gains one new edge of the last color to its
    twin, so the result is closed with 2n vertices.
    """
    _require(g, boundary=True)
    n = g.vertex_count
    mates = _disjoint_union(g, g)
    ids = _ids(2 * n + 1)
    last = mates[g.dimension]
    for v in _boundary(g):
        last[v], last[v + n] = ids[v + n], ids[v]
    del last
    # each list is freed as soon as its tuple exists, and the store step
    # keeps the tuples without a second copy
    for c in range(len(mates)):
        mates[c] = tuple(mates[c])
    return ColoredGraph._from_mates(g.dimension, mates)


def _disjoint_union(first: ColoredGraph, second: ColoredGraph) -> list:
    """Mutable involution arrays of two graphs of one dimension side by
    side, the second graph's vertex v renumbered n + v for the first
    graph's n vertices; an unmatched vertex keeps mate 0.  Every vertex
    number is the vertex-id table's object.

    Every graph's arrays hold the table's objects, and the table only
    grows by appending, so the first graph's arrays are copied as they
    are and only the second graph's shifted ids are looked up."""
    n, size = first.vertex_count, second.vertex_count + 1
    ids = _ids(n + size)
    # shifted[w] is the id n + w, and shifted[0] stays 0
    shifted = (0, *itertools.islice(ids, n + 1, n + size))
    return [
        [*mate, *map(shifted.__getitem__, other[1:])]
        for mate, other in zip(first._mates, second._mates)
    ]


def _weld(mates, u: int, v: int) -> None:
    """Delete u and v, matched in every color, and join their loose
    ends: in each color the mates of u and v become mates, and u and v
    become fixed points."""
    for mate in mates:
        a, b = mate[u], mate[v]
        mate[a], mate[b] = b, a
        mate[u], mate[v] = u, v


def _compact(dimension: int, mates) -> ColoredGraph:
    """The graph on the vertices that `_weld` left in place, renumbered
    1..n in vertex order."""
    color0 = mates[0]
    keep = [w for w in _vertex_ids(len(color0) - 1) if color0[w] != w]
    return _renumbered(dimension, mates, keep)


class Dipole(NamedTuple):
    """A color-c edge whose endpoints lie in different components of the
    residue on the remaining colors (a 1-dipole).  The separation
    certificate is re-verified against the graph before removal."""

    u: int
    v: int
    color: int

    def verify(self, g: ColoredGraph) -> bool:
        n = g.vertex_count
        if not (
            _is_index(self.u, 1, n)
            and _is_index(self.v, 1, n)
            and _is_index(self.color, 0, g.dimension)
        ):
            return False
        # no vertex is its own mate, and an edge of another color between
        # u and v puts them in one residue, so this decides the rest
        if g.mate(self.u, self.color) != self.v:
            return False
        labels, _ = _labels(g, set(g.colors) - {self.color})
        return labels[self.u] != labels[self.v]


def find_one_dipoles(g: ColoredGraph, color: int) -> list[Dipole]:
    """All 1-dipoles of one color, ordered by smaller endpoint."""
    labels, _ = _labels(g, set(g.colors) - {g._color(color)})
    # endpoints in different residues share no edge of another color
    return [
        Dipole(u=a, v=b, color=color)
        for a, b in g.edges(color)
        if labels[a] != labels[b]
    ]


def remove_one_dipole(g: ColoredGraph, dipole: Dipole) -> ColoredGraph:
    """Cancel a 1-dipole: drop its two vertices and weld the loose edges.

    For every color other than the dipole's, the two edges that left the
    removed vertices are fused into one.  The face-vector Euler
    characteristic and the represented manifold are unchanged.  A
    dipole whose two vertices are the whole gem raises `GemError`, as
    no gem would be left.
    """
    if not dipole.verify(g):
        raise GemError(f"stale dipole {dipole}: certificate fails")
    if g.vertex_count == 2:
        raise GemError(f"cancelling {dipole} would leave no vertex")
    mates = [list(mate) for mate in g._mates]
    # where only one side is matched (possible for the last color), the
    # weld writes the other end into slot 0, which compaction drops, and
    # that end becomes a boundary vertex
    _weld(mates, dipole.u, dipole.v)
    return _compact(g.dimension, mates)


def _contract(g: ColoredGraph) -> ColoredGraph:
    """Cancel 1-dipoles of each color c in turn until one residue without
    c is left, each time the one with the smallest smaller endpoint,
    exactly as repeated `find_one_dipoles` and `remove_one_dipole` would;
    returns the compacted result.

    `g` is closed, of dimension at least 2.  Cancelling a c-dipole
    merges two residues without c and keeps the count of the residues
    without any other color (see `crystallize_double`), so color c takes
    one cancellation fewer than `census(g)` counts residues without c,
    and a connected `g` ends as a closed crystallization.  Should a
    color's scan run out of dipoles first, as on a disconnected gem, a
    `GemError` names the color.
    """
    counts = census(g).g
    keys = _census_plan(g.dimension).keys
    full = len(keys) - 1  # the mask of all colors
    size = g.vertex_count + 1
    mates = [list(mate) for mate in g._mates]

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for color in g.colors:
        others = [c for c in g.colors if c != color]
        steps = counts[keys[full ^ 1 << color]] - 1
        if not steps:
            continue
        labels, count = _array_labels([mates[c] for c in others])
        parent = list(range(count + 1))
        mate = mates[color]
        u = 1
        for _ in range(steps):
            # a 1-dipole never reappears once gone, so one scan finds all
            while u < size:
                v = mate[u]
                if u < v and find(labels[u]) != find(labels[v]):
                    break
                u += 1
            else:
                raise GemError(f"no 1-dipole of color {color} available")
            parent[find(labels[v])] = find(labels[u])
            _weld(mates, u, v)
    return _compact(g.dimension, mates)


def crystallize_double(g: ColoredGraph) -> ColoredGraph:
    """Closed crystallization of the double of a bounded crystallization.

    Builds the double, then contracts it (`_contract`): for each color in
    turn it cancels 1-dipoles until one residue without that color is
    left, always taking the first available dipole so outputs are
    reproducible.  The residue censuses of the result are checked
    against the double's.

    The cancellations run on mutable copies of the double's involution
    arrays, with a deleted vertex left as a fixed point of every color,
    and the result is compacted once at the end.  For each color c the
    residues on the other colors (the c-hat residues) are labeled once;
    a color-c edge is a 1-dipole iff its endpoints carry different
    labels, and cancelling it merges their two labels by union-find.
    The cancellation is the dipole move of Ferri, Gagliardi and
    Grasselli ("A graph-theoretical representation of PL-manifolds",
    Aequationes Math. 31, 1986), which keeps the represented manifold.

    The merge is exact.  The double is closed and welding keeps every
    color a perfect matching, so removing a vertex u from its c-hat
    residue R leaves R minus u connected.  Were a component P of R
    minus u reached from u by a proper subset S of the c-hat colors,
    each color of S would pair all of P but one vertex within P, making
    |P| odd, and each other c-hat color would pair all of P, making |P|
    even.  So every component is reached by all c-hat colors, and as u
    has one edge of each color there is only one.  The residue that
    replaces those of the dipole's endpoints u and v is therefore
    (R_u + R_v) minus {u, v}, joined by the welded edges, and every
    other c-hat residue is unchanged.

    Every other count stays too.  For a color e other than c, let R be
    the e-hat residue that holds the color-c edge uv.  A component P of
    R minus {u, v} is paired within itself by color c, so |P| is even,
    and so for each further color of R it holds both or neither of the
    two loose ends at u and v, which the weld joins.  The residue on
    the colors other than c and e that holds u stays connected without
    u, holds each loose end at u and misses v; so does the one at v.
    With d >= 2 that color set is not empty, so all loose ends, and so
    all of R minus {u, v}, lie in one component: R stays one residue.

    So the counts of the double's census set the cancellations.  For
    c < d the double has g_c-hat = g_c-hat(M) + gdot_c-hat(M) = h +
    gdot_c-hat(M) residues without c, where gdot counts the residues
    free of boundary vertices; each boundary component holds a vertex
    of label c of the complex, and the crystallization has only h of
    them, so gdot_c-hat(M) = 0 and h - 1 dipoles of color c go.  The
    two copies of M give 2 residues without d, so one dipole of color d
    goes.  The census check below restates those counts in h.

    The color-c edges other than the cancelled one never change and
    labels only merge, so during a color's phase a 1-dipole of that
    color can only disappear.  One scan in vertex order thus finds, at
    each step, the same first dipole by smaller endpoint as
    `find_one_dipoles` on the rebuilt graph, and compaction keeps vertex
    order, so the output equals that of repeated public dipole moves.
    The cost is O(d n) label work per color.
    """
    _require(g, boundary=True, crystallization=True)
    h = validate(g).h
    doubled = double(g)
    out = _contract(doubled)
    final = validate(out)
    if not (final.closed and final.is_crystallization):
        raise GemError("dipole cancellation did not yield a closed "
                       "crystallization")
    if g.dimension == 4:
        before, after = census(doubled).g, census(out).g
        keys = _census_plan(4).keys
        # the four triples without color 4 first, then the six with it
        for i, j, k in sorted(
            itertools.combinations(range(5), 3), key=lambda t: t[2] == 4
        ):
            drop, text = (2 * (h - 1), "2(h-1)") if k == 4 else (h, "h")
            key = keys[1 << i | 1 << j | 1 << k]
            if after[key] != before[key] - drop:
                raise GemError(
                    f"census check failed: g_{i}{j}{k} of the contracted "
                    f"double is not the doubled count minus {text}"
                )
    return out


def connected_sum(
    g1: ColoredGraph, v1: int, g2: ColoredGraph, v2: int
) -> ColoredGraph:
    """Graph connected sum: delete v1, v2 and splice edges color by color.

    Both vertices must be internal.  The result is the graph sum only:
    with two bounded summands it need not represent M1 # M2.  For
    instance `connected_sum(fig2_s3xI, 4, fig2_s3xI, 4)` has h = 3 and
    chi = -1, where S^3 x I # S^3 x I has h = 4 and chi = -2.
    """
    if g1.dimension != g2.dimension:
        raise GemError("connected sum requires equal dimensions")
    if not (
        _is_index(v1, 1, g1.vertex_count) and _is_index(v2, 1, g2.vertex_count)
    ):
        raise GemError("summing vertex out of range")
    d = g1.dimension
    if g1.mate(v1, d) is None or g2.mate(v2, d) is None:
        raise GemError("summing vertices must be internal")
    mates = _disjoint_union(g1, g2)
    _weld(mates, v1, g1.vertex_count + v2)
    return _compact(d, mates)


def sphere_connector_sum(
    g1: ColoredGraph, u: int, g2: ColoredGraph, v: int
) -> ColoredGraph:
    """Connected sum of two gems routed through the built-in 10-vertex
    4-sphere connector at its two designated vertices.

    Both inputs must have dimension 4, the connector's, and the two
    summing vertices must be internal.  The result has
    |V(g1)| + |V(g2)| + 6 vertices.  Each of its two graph sums has the
    closed connector on one side.  That it represents M1 # M2 for two
    bounded summands is measured, not proved: on `fig2_s3xI` summed with
    itself at vertex 4 it has the h = 4 and chi = -2 of
    S^3 x I # S^3 x I, where the plain `connected_sum` has h = 3 and
    chi = -1.
    """
    from .catalog import catalog_get

    _require(g1, dimension=4)
    _require(g2, dimension=4)
    connector = catalog_get("fig1_s4")
    left = connected_sum(g1, u, connector.graph, connector.connector_vertices[0])
    # after compaction, the connector's second designated vertex sits at
    # offset |V(g1)| - 1 + (v2 - 1) with v2 = 2
    middle_vertex = g1.vertex_count - 1 + connector.connector_vertices[1] - 1
    return connected_sum(left, middle_vertex, g2, v)


def interval_product(g3: ColoredGraph) -> ColoredGraph:
    """Crystallization of M x [0,1] from a closed 3-manifold gem.

    Five partial copies of the input are chained: copy m drops the
    edges of one original color, (m-1) mod 4, and recolors its three
    surviving matchings (ascending) onto the color set {0..4} minus
    {(m-1) mod 5, m} (ascending); 2p edges of color c then join copies
    c and c+1 for 0 <= c <= 3.  Every color below 4 becomes a perfect
    matching while copies 0 and 4 stay unmatched in color 4, so they
    carry the two boundary components.
    """
    _require(g3, dimension=3, boundary=False, crystallization=True)
    c3 = census(g3)
    n = g3.vertex_count
    pair_counts = {
        (i, j): c3.g_of(i, j) for i, j in itertools.combinations(range(4), 2)
    }
    sphere_sum = (
        pair_counts[(0, 1)] + pair_counts[(0, 2)] + pair_counts[(0, 3)]
    )
    complements = [
        (pair_counts[(0, 1)], pair_counts[(2, 3)]),
        (pair_counts[(0, 2)], pair_counts[(1, 3)]),
        (pair_counts[(0, 3)], pair_counts[(1, 2)]),
    ]
    if sphere_sum != 2 + n // 2 or any(a != b for a, b in complements):
        raise GemError(
            "input fails the closed 3-manifold census conditions "
            "(complementary pair counts equal and summing to 2 + n/2)"
        )
    copies = 5
    ids = _ids(copies * n + 1)
    mates = [[0] * (copies * n + 1) for _ in range(5)]
    for m in range(copies):
        dropped_own = {(m - 1) % copies, m}
        own_colors = [c for c in range(5) if c not in dropped_own]
        dropped_original = (m - 1) % 4
        kept_original = [c for c in range(4) if c != dropped_original]
        offset = m * n
        # shifted[w] is the id offset + w; the input is closed, so every
        # copied entry is a vertex
        shifted = ids[offset : offset + n + 1]
        for original_color, target_color in zip(kept_original, own_colors):
            mates[target_color][offset + 1 : offset + n + 1] = map(
                shifted.__getitem__, g3._mates[original_color][1:]
            )
    for c in range(4):
        lo, hi = c * n, (c + 1) * n
        mates[c][lo + 1 : hi + 1] = ids[hi + 1 : hi + n + 1]
        mates[c][hi + 1 : hi + n + 1] = ids[lo + 1 : lo + n + 1]
    product = ColoredGraph._from_mates(4, mates)
    # the construction promises a genus realization of twice the sum of
    # two complementary pair counts minus four; check it
    from .genus import rho_epsilon

    expected = 2 * (pair_counts[(0, 1)] + pair_counts[(0, 3)]) - 4
    profile = rho_epsilon(product, (2, 0, 3, 1, 4))
    if profile.rho != expected:
        raise GemError(
            f"interval product genus check failed: rho at scheme "
            f"(2,0,3,1,4) is {profile.rho}, expected {expected}"
        )
    return product
