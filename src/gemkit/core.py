"""Edge-colored multigraph model for gem-encoded PL manifolds.

A gem is a properly edge-colored multigraph with colors 0..d that is
regular with respect to the last color: colors 0..d-1 are perfect
matchings on the vertex set, while color d may be a partial matching.
Vertices unmatched in color d are boundary vertices.  All invariants in
this package (residue censuses, boundary graphs, face vectors) are
derived from this data by exact integer arithmetic.

The residue census labels residues instead of listing them.  Each
bicolored residue is walked once along its two involution arrays (a
cycle, or a path between two boundary vertices when color d is one of
the two); the next cycle starts at the next unlabeled vertex, found by
one C-level scan of the labels, not by a test per vertex.  Every
further color is joined through its edge list, each edge listed once by
its smaller end, so a boundary vertex adds none.  A larger color set
grows from the pair of its two smallest colors: after that pair's walk,
every set over the pair holds one union-find forest over the pair's
walk labels, whose trees are its residues, and joins one more color by
merging in place in a copy of its parent's forest; the join walks that
color's two end lists in step and subscripts each end's walk label
inline.  Every link points at a smaller label, so each tree is rooted
at its smallest label, and no join renumbers labels.  A join stops
reading once one tree is left.  Each join reads the lists from the
start, at most once to their end: a join with top color c over the
pair {i, j} is one of 2^(c - j - 1) such joins, so at d = 4 color 4 is
read at most 4 times over the pair {0, 1}.  A residue with color d
fails to be regular exactly when its tree holds a boundary vertex.
The census stops at connected residues: more colors only add edges, so
once a set's residue is one component, every set above it in the
lattice is one component too, counted as 1 with no join (regular unless
the gem has boundary, whose vertices that one tree holds); an edge
list is built only when a join first needs it, and a labeling stops
once one tree is left.  What depends only on the dimension d is
planned once per d (`_census_plan`): the frozenset key of each of the
2^(d+1) - 1 color sets, shared by every census of that dimension, by
its boundary counts (under the plan of d - 1), by the genus formulas
and by the `verify` ledger, and for each pair the sets above it in
depth-first order, each with the slot of its parent.
One call labels the residues of one color set (`_labels`): one walk
and the same joins into one forest, then each vertex labeled by its
tree's root, and it returns only those root labels.
`residue_components`, the boundary graph's components and the 1-dipole
search of `constructions` read it; the contraction behind
`crystallize_double` keeps the walk labels and the forest
(`_array_forest`) and then only merges trees.  No other component
algorithm runs on vertices.

Files and the catalog build graphs from pairs; constructions and the
boundary graph build them from involution arrays (`_from_mates`),
checked as strictly; both end in one store step.  Every vertex number
written into an involution array is read from one shared vertex-id
table (`_ids`), whose entry v is the int v.  Fresh ints would cost a
28-byte object per (color, vertex) entry next to its 8-byte pointer;
with the table the arrays of every graph point at one object per
vertex number.  The table only grows by appending, so an entry, once
handed out, stays the table's object for that number and every graph
keeps holding the table's own objects.

Graphs are immutable, so each per-graph analysis (`census`,
`boundary_graph`, `face_vector`, `validate`, `constructions.double`,
the scheme-genus table `genus._scheme_table` and `genus.regular_genus`)
is computed at most once per graph object and the result is shared by
every later caller.
Shared results are read-only: the census mappings are
`MappingProxyType` views and every other result is a tuple or a
`typing.NamedTuple` record.

Input contracts are worded only in two gates, which every module calls
instead of checking them by hand: `_require` for a graph (a dimension,
a nonempty or an empty boundary, a crystallization) and `_require_meta`
for the manifold metadata that the bound formulas read (exact ints, at
least one boundary component, a given rank m, no negative rank, genus
or complexity and, with a gem, the gem's own h and chi).  The metadata
record `ManifoldMeta` is defined here too, so that the catalog needs no
layer but this one.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple


class GemError(ValueError):
    """Raised for structurally invalid gems or bad operation inputs."""


def _per_graph(analysis):
    """Run `analysis(g)` at most once per graph object.

    The result is stored on the graph itself, so it lives exactly as
    long as the graph.  Two threads may both compute it on first use;
    the first stored result wins and is returned to both, so the write
    is idempotent.  Exceptions are not stored.
    """

    @functools.wraps(analysis)
    def memoized(g):
        result = g._memo.get(analysis)
        if result is None:
            result = g._memo.setdefault(analysis, analysis(g))
        return result

    return memoized


# The census enumerates all 2^(d+1) - 1 color sets, so its time and
# memory double with each dimension; at d = 10 a 2-vertex gem already
# takes about 1 MB.
MAX_DIMENSION = 10


def _check_shape(dimension, vertex_count, color_count) -> None:
    # exact ints, the rule of `_is_index`: a bool would pass the range
    # checks and be stored as the dimension, and a float would raise
    # `TypeError` once it sizes an array
    if type(dimension) is not int or dimension < 1:
        raise GemError("dimension must be a positive integer")
    if dimension > MAX_DIMENSION:
        raise GemError(
            f"dimension {dimension} exceeds the supported maximum "
            f"{MAX_DIMENSION}: the residue census enumerates all "
            f"2^(d+1) - 1 color sets"
        )
    if type(vertex_count) is not int:
        raise GemError(f"vertex count must be an int, got {vertex_count!r}")
    if vertex_count < 1:
        raise GemError("vertex count must be positive")
    if color_count != dimension + 1:
        raise GemError(f"expected {dimension + 1} colors, got {color_count}")


def _is_index(x, low: int, high: int) -> bool:
    """Whether `x` is an exact int in low..high.  A bool or a float equal
    to such an int is not: a bool would index an array as 0 or 1, and a
    float would raise `TypeError` there."""
    return type(x) is int and low <= x <= high


# entry v is the int v; see `_ids`
_ID_TABLE: tuple[int, ...] = (0,)


def _ids(size: int) -> tuple[int, ...]:
    """The vertex-id table, at least `size` entries long: entry v is the
    int v, the one object that every involution array holds for v.

    The table is append-only: a longer request appends the numbers
    `len(table)..size - 1` and keeps every entry it has handed out, so
    it grows to the largest graph seen and a graph built before it grew
    still holds its objects.  It needs no lock: two threads that grow it
    at once may each append their own objects for the same new numbers,
    and the later write wins, but every entry's value stays exact and
    each thread gets a table long enough for its request.
    """
    global _ID_TABLE
    table = _ID_TABLE
    if len(table) < size:
        table = _ID_TABLE = table + tuple(range(len(table), size))
    return table


def _vertex_ids(n: int):
    """The vertex numbers 1..n as an iterator over the vertex-id table."""
    return itertools.islice(_ids(n + 1), 1, n + 1)


class ColoredGraph:
    """Immutable (d+1)-edge-colored multigraph, regular w.r.t. color d.

    Vertices are 1..n.  Each color is a fixed-point-free partial pairing
    stored as an involution array; colors 0..d-1 must pair every vertex.
    The arrays point at the int objects of the shared vertex-id table
    (`_ids`) instead of each holding ints of its own, so an entry costs
    an 8-byte pointer and no 28-byte int.
    Parallel edges between the same two vertices are allowed as long as
    their colors differ (which the matching representation guarantees).
    The dimension is at most `MAX_DIMENSION`.  The constructor takes the
    dimension, the vertex count and each vertex of a pair only as exact
    ints, so a bool is no vertex.  A pair that is not two vertex ints
    raises `GemError` naming its color, and pairs that do not come as
    one iterable per color raise one naming none.  The accessors take a
    vertex and a color only as exact ints in range and raise `GemError`
    for anything else.
    """

    __slots__ = ("dimension", "vertex_count", "_mates", "_memo")

    def __init__(self, dimension, vertex_count, pairs_by_color):
        # a pair that is not two exact ints fails to unpack or fails the
        # type check, and that error is reported as a `GemError` naming
        # its color, or naming no color if the colors cannot be listed
        color = None
        try:
            pairs_by_color = list(pairs_by_color)
            _check_shape(dimension, vertex_count, len(pairs_by_color))
            n = vertex_count
            mates = []
            for color, pairs in enumerate(pairs_by_color):
                pairs = list(pairs)
                # checked before allocating, so a vertex count that the
                # pairs cannot cover costs no memory
                if color < dimension and len(pairs) * 2 != n:
                    raise GemError(f"color {color} not a total pairing")
                if not color:
                    # color 0 passed the check, so the pairs cover n
                    ids = _ids(n + 1)
                mate = [0] * (n + 1)
                for a, b in pairs:
                    # `type`, the rule of `_is_index`: a bool is no vertex
                    if type(a) is not int or type(b) is not int:
                        raise TypeError
                    if not (1 <= a <= n and 1 <= b <= n):
                        raise GemError(
                            f"color {color}: vertex out of range in pair "
                            f"{a}-{b}"
                        )
                    if a == b:
                        raise GemError(f"color {color}: loop at vertex {a}")
                    if mate[a] or mate[b]:
                        dup = a if mate[a] else b
                        raise GemError(
                            f"color {color}: vertex {dup} paired more than "
                            f"once"
                        )
                    mate[a], mate[b] = ids[b], ids[a]
                mates.append(tuple(mate))
        except GemError:
            raise
        except (TypeError, ValueError):
            raise GemError(
                "expected one list of pairs per color" if color is None
                else f"color {color}: expected pairs of vertex ints"
            ) from None
        self._store(dimension, mates)

    @classmethod
    def _from_mates(cls, dimension, mates) -> "ColoredGraph":
        """A graph from one involution array per color, indexed 0..n with
        0 for an unmatched vertex, checked as strictly as pairs are."""
        n = len(mates[0]) - 1 if mates else 0
        _check_shape(dimension, n, len(mates))
        vertices = list(_vertex_ids(n))
        for color, mate in enumerate(mates):
            # applied twice, the array must take each vertex back to
            # itself: an unmatched vertex stands for itself, a fixed
            # point drops out of the list, an entry above n raises and
            # a negative one never maps back
            try:
                back = [
                    mate[w] if w else v for v, w in enumerate(mate) if w != v
                ]
            except IndexError:
                back = None
            if (
                len(mate) != n + 1 or mate[0] or back != vertices
                or color < dimension and mate.count(0) != 1
            ):
                raise GemError(f"color {color}: mate array is no pairing")
        graph = cls.__new__(cls)
        graph._store(dimension, mates)
        return graph

    def _store(self, dimension, mates):
        """Freeze checked involution arrays; both constructors end here."""
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "vertex_count", len(mates[0]) - 1)
        object.__setattr__(self, "_mates", tuple(map(tuple, mates)))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("ColoredGraph is immutable")

    # -- basic accessors -------------------------------------------------

    @property
    def colors(self) -> range:
        return range(self.dimension + 1)

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    def _color(self, color: int) -> int:
        """`color`, or a `GemError` unless it is one of 0..d."""
        if not _is_index(color, 0, self.dimension):
            raise GemError(f"color {color} out of range 0..{self.dimension}")
        return color

    def _vertex(self, vertex: int) -> int:
        """`vertex`, or a `GemError` unless it is one of 1..n."""
        if not _is_index(vertex, 1, self.vertex_count):
            raise GemError(
                f"vertex {vertex} out of range 1..{self.vertex_count}"
            )
        return vertex

    def mate(self, vertex: int, color: int) -> int | None:
        """The other endpoint of `vertex`'s edge of `color`, or None."""
        m = self._mates[self._color(color)][self._vertex(vertex)]
        return m if m else None

    def edges(self, color: int) -> list[tuple[int, int]]:
        """Edges of one color as (smaller, larger) pairs, sorted."""
        mate = self._mates[self._color(color)]
        return [(v, mate[v]) for v in self.vertices if v < mate[v]]

    def boundary_vertices(self) -> list[int]:
        return list(_boundary(self))

    def is_closed(self) -> bool:
        return not _boundary(self)

    def vertex_tally(self) -> "VertexTally":
        boundary = len(_boundary(self))
        return VertexTally(
            total=self.vertex_count,
            boundary=boundary,
            internal=self.vertex_count - boundary,
        )

    def degree(self, vertex: int) -> int:
        self._vertex(vertex)
        return sum(1 for c in self.colors if self._mates[c][vertex])

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ColoredGraph)
            and self.dimension == other.dimension
            and self.vertex_count == other.vertex_count
            and self._mates == other._mates
        )

    def __hash__(self):
        return hash((self.dimension, self.vertex_count, self._mates))

    def __repr__(self):
        return (
            f"ColoredGraph(d={self.dimension}, n={self.vertex_count}, "
            f"edges={sum(len(self.edges(c)) for c in self.colors)})"
        )

    # -- structural predicates ---------------------------------------------

    def is_bipartite(self) -> bool:
        """Two-colorability, checked by BFS over every edge."""
        mates = self._mates
        side = [0] * (self.vertex_count + 1)
        for start in self.vertices:
            if side[start]:
                continue
            side[start] = 1
            queue = [start]
            while queue:
                v = queue.pop()
                here = side[v]
                for mate in mates:
                    w = mate[v]
                    if not w:
                        continue
                    there = side[w]
                    if not there:
                        side[w] = -here
                        queue.append(w)
                    elif there == here:
                        return False
        return True


@_per_graph
def _boundary(g: ColoredGraph) -> tuple[int, ...]:
    """The vertices unmatched in color d, ascending: one pass over the
    vertices per graph, shared by the census, the boundary graph and the
    tally."""
    mate = g._mates[g.dimension]
    return tuple(v for v in _vertex_ids(g.vertex_count) if not mate[v])


class VertexTally(NamedTuple):
    """Vertex counts: total = boundary + internal, all even for gems."""

    total: int
    boundary: int
    internal: int

    @property
    def p(self) -> int:
        return self.total // 2

    @property
    def p_bar(self) -> int:
        return self.boundary // 2

    @property
    def p_dot(self) -> int:
        return self.internal // 2


class ResidueComponent(NamedTuple):
    """One connected component of a residue subgraph.

    `regular` means every vertex of the component meets an edge of every
    color in the residue's color set.
    """

    vertices: tuple[int, ...]
    regular: bool


def _groups(labels, n: int) -> dict[int, list[int]]:
    """The vertices 1..n grouped by label, each group ascending; labels
    come first seen in vertex order, so smallest vertex first."""
    groups: dict[int, list[int]] = {}
    for v in _vertex_ids(n):
        groups.setdefault(labels[v], []).append(v)
    return groups


def residue_components(g: ColoredGraph, colors) -> list[ResidueComponent]:
    """Connected components of the subgraph with edge colors in `colors`.

    Components are the residue labels of `_labels`, ordered by smallest
    vertex.  Colors 0..d-1 pair every vertex, so a component is flagged
    regular (all its vertices meet every color of the set) iff the set
    misses color d or the component holds no boundary vertex.
    """
    try:
        colorset = frozenset(colors)
    except TypeError:
        raise GemError(
            f"colors {colors!r} out of range 0..{g.dimension}"
        ) from None
    if not colorset:
        raise GemError("residue color set must be nonempty")
    if not all(_is_index(c, 0, g.dimension) for c in colorset):
        # ints first, then anything else by its repr, so any set sorts
        shown = sorted(
            colorset, key=lambda c: (0, c) if type(c) is int else (1, repr(c))
        )
        raise GemError(f"colors {shown} out of range 0..{g.dimension}")
    labels = _labels(g, colorset)
    held = set()
    if g.dimension in colorset:
        held = {labels[v] for v in _boundary(g)}
    return [
        ResidueComponent(vertices=tuple(comp), regular=label not in held)
        for label, comp in _groups(labels, g.vertex_count).items()
    ]


class BoundaryGraph(NamedTuple):
    """The d-colored graph induced on the boundary vertices of a parent.

    Vertices are renumbered 1..2p_bar in increasing parent order;
    `parent_vertices[i-1]` is the parent vertex behind vertex i.  A
    color-j edge joins two vertices iff the parent joins them by an
    alternating path of j- and d-colored edges.  `components` lists the
    connected components (tuples of boundary-graph vertices).
    """

    graph: ColoredGraph | None
    parent_vertices: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    def is_empty(self) -> bool:
        return self.graph is None

    def component_count(self) -> int:
        return len(self.components)

    def component_subgraph(self, index: int) -> ColoredGraph:
        """A component as a standalone closed gem of dimension d-1.
        `index` is an exact int in 0..h-1, the rule of `_is_index`, or a
        `GemError` names that range."""
        h = len(self.components)
        if not _is_index(index, 0, h - 1):
            raise GemError(f"component {index!r} out of range 0..{h - 1}")
        bg = self.graph
        return _renumbered(bg.dimension, bg._mates, self.components[index])


def _renumbered(dimension, mates, keep) -> ColoredGraph:
    """The graph that involution arrays `mates` induce on the vertices
    `keep`, given ascending and closed under every color, renumbered
    1..len(keep) in that order."""
    renumber = [0] * len(mates[0])
    for v, i in zip(keep, _vertex_ids(len(keep))):
        renumber[v] = i
    # built as tuples, which the store step keeps without a copy
    return ColoredGraph._from_mates(
        dimension,
        [
            (0, *[renumber[mate[v]] for v in keep])
            for mate in mates
        ],
    )


@_per_graph
def boundary_graph(g: ColoredGraph) -> BoundaryGraph:
    """Extract the boundary graph; empty result for closed gems.

    Its components are labeled by one `_labels` call over all its
    colors; it is closed, so no path ends are walked, and the joins stop
    once one tree is left: more colors only add edges, so a connected
    residue of some of its colors is a connected graph."""
    boundary = _boundary(g)
    if not boundary:
        return BoundaryGraph(graph=None, parent_vertices=(), components=())
    d = g.dimension
    if d < 2:
        raise GemError("a gem with boundary needs dimension at least 2")
    last = g._mates[d]
    mates = []
    for j in range(d):
        mate = g._mates[j]
        far = [0] * (g.vertex_count + 1)
        # an alternating (j,d)-path from a boundary vertex ends at
        # another one; its far end is skipped once it has been reached
        for v in boundary:
            if not far[v]:
                cur = mate[v]
                while last[cur]:
                    cur = mate[last[cur]]
                far[v], far[cur] = cur, v
        mates.append(far)
    bg = _renumbered(d - 1, mates, boundary)
    labels = _labels(bg, bg.colors)
    comps = tuple(map(tuple, _groups(labels, bg.vertex_count).values()))
    return BoundaryGraph(
        graph=bg, parent_vertices=boundary, components=comps
    )


class ResidueCensus(NamedTuple):
    """Component counts over every nonempty color subset.

    `g[B]` counts connected components of the residue with colors B;
    `g_dot[B]` counts the regular ones.  For gems with boundary,
    `boundary_g[{i,j}]` counts {i,j}-cycles of the extracted boundary
    graph and `component_boundary_g[q]` the same per boundary component.
    One census is shared by every caller on the same graph, so all its
    mappings are read-only.
    """

    dimension: int
    g: Mapping[frozenset, int]
    g_dot: Mapping[frozenset, int]
    boundary_g: Mapping[frozenset, int]
    component_boundary_g: tuple[Mapping[frozenset, int], ...]
    tally: VertexTally

    def g_of(self, *colors: int) -> int:
        """`g` of distinct colors in 0..d; other colors raise `GemError`."""
        return self.g[_color_set(colors, self.dimension)]

    def g_dot_of(self, *colors: int) -> int:
        """`g_dot` of distinct colors in 0..d; other colors raise
        `GemError`."""
        return self.g_dot[_color_set(colors, self.dimension)]

    def boundary_g_of(self, i: int, j: int) -> int:
        """`boundary_g` of colors i != j in 0..d-1, 0 on a closed gem;
        other colors raise `GemError`."""
        # a closed gem lists no pair, and each valid one reads 0
        return self.boundary_g.get(_color_set((i, j), self.dimension - 1), 0)


def _color_set(colors: tuple, top: int) -> frozenset:
    """The census key of `colors`, one or more distinct exact ints in
    0..top; other colors raise `GemError`.  A bool or a float equal to a
    color would find its key, since a frozenset matches by equality."""
    if colors and all(_is_index(c, 0, top) for c in colors):
        key = frozenset(colors)
        if len(key) == len(colors):
            return key
    raise GemError(f"colors {list(colors)}: need distinct colors in 0..{top}")


def _pair_labels(first, second, ends) -> tuple[list[int], list[int]]:
    """Label the residues of one color pair by walking them.

    `first` and `second` are involution arrays; `first` pairs every
    vertex, `second` may leave the vertices `ends` unmatched.  Residues
    through an end are paths, walked from one end to the other; all
    other residues are cycles.  Each cycle starts at the smallest vertex
    still unlabeled, found by `list.index` from the last start on, so
    the vertices between two starts are skipped in one C-level scan
    rather than tested one by one; a 0 past the last vertex ends the
    scan and is dropped before returning.  Returns the label array
    (labels 1..k, index 0 keeps label 0) and the starting vertex of each
    label.
    """
    end = len(first)
    labels = [0] * (end + 1)
    starts = []
    for v in ends:
        if labels[v]:
            continue
        starts.append(v)
        k = len(starts)
        w = v
        while w:
            labels[w] = k
            x = first[w]
            labels[x] = k
            w = second[x]
    v = labels.index(0, 1)
    while v < end:
        starts.append(v)
        k = len(starts)
        w = v
        while True:
            labels[w] = k
            x = first[w]
            labels[x] = k
            w = second[x]
            if w == v:
                break
        v = labels.index(0, v + 1)
    labels.pop()
    return labels, starts


def _join(lows, highs, labels, forest, left: int) -> int:
    """Merge residue labels along the edges of one more color, in place.

    `forest` is a union-find forest over the labels that `labels` gives
    the vertices, holding the residues of a color set B as `left` >= 2
    trees (a connected B is never joined).  `lows` and `highs` are the
    two end lists of a further color c (`_edge_list`), read in step, and
    each end is subscripted inline, `labels[v]`.  Finds halve their
    paths and a link puts the larger root under the smaller, so every
    pointer points at a smaller label and each root is its tree's
    smallest label.  A repeated label pair adds nothing.  The ends are
    read only until one tree is left, since further edges cannot split a
    connected residue: up to the edge that connects B with c, and to the
    end of the lists if B with c is split.
    Returns the number of trees left, the residue count of B with c.
    """
    for v, w in zip(lows, highs):
        a = labels[v]
        b = labels[w]
        while forest[a] != a:
            forest[a] = a = forest[forest[a]]
        while forest[b] != b:
            forest[b] = b = forest[forest[b]]
        if a == b:
            continue
        if a < b:
            forest[b] = a
        else:
            forest[a] = b
        left -= 1
        if left == 1:
            break
    return left


def _find(forest, x: int) -> int:
    """The root of `x` in a union-find forest, halving its path."""
    while forest[x] != x:
        forest[x] = x = forest[forest[x]]
    return x


def _edge_list(mate) -> tuple[list[int], list[int]]:
    """The edges of one involution array as two lists of ends, each edge
    listed once by its smaller end (`v < mate[v]`), so a fixed point or
    an unmatched vertex lists no edge.  The larger ends are subscripted
    inline, one comprehension over the smaller ones."""
    lows = [v for v, w in enumerate(mate) if v < w]
    return lows, [mate[v] for v in lows]


def _array_forest(arrays, ends=()) -> tuple[list[int], list[int]]:
    """The residues spanned by a nonempty list of involution arrays, as
    walk labels and one union-find forest over them whose trees are the
    residues.

    The first two arrays are labeled by a walk (`_pair_labels`), so the
    first pairs every vertex and the second may leave the vertices
    `ends` unmatched; a single array starts from one label per vertex,
    the vertex itself.  Every further array is joined (`_join`) into the
    one forest over its edge list (`_edge_list`), with no relabeling
    between arrays.  The joins count the trees left, and once one is
    left the join stops reading and the remaining arrays are not read:
    they only add edges, and edges cannot split a connected residue.
    Index 0 keeps label 0.
    """
    if len(arrays) == 1:
        labels, count = list(range(len(arrays[0]))), len(arrays[0]) - 1
    else:
        labels, starts = _pair_labels(arrays[0], arrays[1], ends)
        count = len(starts)
        arrays = arrays[2:]
    forest = list(range(count + 1))
    for mate in arrays:
        if count == 1:
            break
        count = _join(*_edge_list(mate), labels, forest, count)
    return labels, forest


def _labels(g: ColoredGraph, colors) -> list[int]:
    """Label the residues of one nonempty color set, each vertex by the
    root of its walk label in the forest of `_array_forest` over the
    colors in ascending order.  Only a pair {i, d} walks the boundary
    vertices as path ends; in a larger set color d is joined through its
    edge list.  Every link points at a smaller label, so one ascending
    pass flattens the forest, each label's parent being a root by the
    time the label is reached, and the labels are then rewritten once.
    The labels are root labels, not 1..count: the residues are told
    apart by label, not numbered.  Index 0 keeps label 0.
    """
    ordered = sorted(colors)
    pair_with_last = len(ordered) == 2 and ordered[1] == g.dimension
    labels, forest = _array_forest(
        [g._mates[c] for c in ordered],
        _boundary(g) if pair_with_last else (),
    )
    for x in range(len(forest)):
        forest[x] = forest[forest[x]]
    return [forest[x] for x in labels]


class _CensusPlan(NamedTuple):
    """What the census of every gem of one dimension d walks.

    `keys[mask]` is the frozenset of the colors c whose bit 1 << c is
    set in `mask`, so each color set has one shared key object.  `roots`
    holds one (i, j, key, above) row per pair i < j; `above` lists every
    set whose two smallest colors are i and j, in depth-first order, as
    (key, c, slot): the set is its parent joined with color c, its top
    color, and the parent is the last set listed at slot - 1 (slot 0 is
    the pair itself)."""

    keys: tuple[frozenset, ...]
    roots: tuple[tuple[int, int, frozenset, tuple], ...]


@functools.cache
def _census_plan(d: int) -> _CensusPlan:
    """The census plan of dimension d, built on first use: 2^(d+1) keys
    and one lattice walk per pair, the same for every gem of dimension
    d."""
    keys = tuple(
        frozenset(c for c in range(d + 1) if mask >> c & 1)
        for mask in range(1 << (d + 1))
    )
    roots = []
    for i, j in itertools.combinations(range(d + 1), 2):
        above: list[tuple[frozenset, int, int]] = []

        def grow(mask, top, slot):
            for c in range(top + 1, d + 1):
                above.append((keys[mask | 1 << c], c, slot))
                grow(mask | 1 << c, c, slot + 1)

        grow(1 << i | 1 << j, j, 1)
        roots.append((i, j, keys[1 << i | 1 << j], tuple(above)))
    return _CensusPlan(keys=keys, roots=tuple(roots))


def _residue_counts(g: ColoredGraph) -> tuple[dict, dict]:
    """Component and regular-component counts of every residue.

    Singletons are counted from the matchings.  Each pair {i, j} is
    labeled by a walk (`_pair_labels`), with the boundary vertices as
    path ends if j = d.  Every larger color set grows from its root, the
    pair {i, j} of its two smallest colors, so j < d.  Each set B over
    the root holds a union-find forest over the root's labels 1..R,
    whose trees are B's residues, and B with a further color c above
    max(B) is joined (`_join`) in a copy of that forest over the two end
    lists of c (`_edge_list`, built once per census, on the first join
    that needs it): each end v is subscripted inline as L(v), L the
    root's pair labels.  Every set starts from a copy of the forest at
    slot - 1, its parent's, where slot 0 holds the root's identity forest
    over 1..R, so the parent's other children still see the parent's own.
    The identity forest is a range, so a root whose forest no join
    copies builds no list.  A join stops once one tree is left, so a
    connected result reads the lists only up to the edge that connects
    it, and a split one reads them all.  Each join reads the lists from
    the start, so a list may be read more than once over a root: a join
    with top color c over the root {i, j} is one of 2^(c - j - 1) such
    joins, and each reads at most the whole list once; at d = 4 that is
    at most 4 reads of color 4 over the root {0, 1}.  The sets over each
    root come in the depth-first order of the dimension's
    `_census_plan`, which also holds every key, so at most d - 1 forest
    lists are alive at once and no key is built per gem.
    Colors 0..d-1 pair every vertex, so a residue without color d is
    regular; with color d, the components that are not regular are
    exactly the trees holding a boundary vertex, counted as the distinct
    roots of the root's labels of boundary vertices.  Boundary vertices
    have no color-d edge, so they add no label-level edge.
    A set whose parent (the root, or the set at slot - 1) has one
    component has one component too, since a further color only adds
    edges: it is counted as 1 with no join, and with color d as regular
    1, or 0 if the gem has boundary, since that tree holds every
    boundary vertex.  So a root with one residue reads no further color,
    and a color that no split root reads gets no edge list.
    """
    n, d = g.vertex_count, g.dimension
    keys, roots = _census_plan(d)
    boundary = _boundary(g)
    counts: dict[frozenset, int] = {}
    regular: dict[frozenset, int] = {}
    for c in range(d):
        counts[keys[1 << c]] = regular[keys[1 << c]] = n // 2
    last_edges = (n - len(boundary)) // 2
    counts[keys[1 << d]] = last_edges + len(boundary)
    regular[keys[1 << d]] = last_edges
    # built on a join's first need, for colors above 1 only
    edge_lists: dict[int, tuple[list[int], list[int]]] = {}
    # forests[slot]: the forest over the root's labels of the last set
    # counted at that slot, and its tree count; slot 0 is the root's
    # identity forest, a range that only copies turn into lists
    forests = [None] * d
    for i, j, pair, above in roots:
        labels, starts = _pair_labels(
            g._mates[i], g._mates[j], boundary if j == d else ()
        )
        count = len(starts)
        held = {labels[v] for v in boundary}
        counts[pair] = count
        regular[pair] = count - len(held) if j == d else count
        forests[0] = range(count + 1), count
        for key, c, slot in above:
            parent, size = forests[slot - 1]
            if size == 1:
                # more colors only add edges: one component stays one
                forest, k = parent, 1
            else:
                if c not in edge_lists:
                    edge_lists[c] = _edge_list(g._mates[c])
                forest = list(parent)
                k = _join(*edge_lists[c], labels, forest, size)
            counts[key] = k
            if c < d:
                regular[key] = k
                forests[slot] = forest, k
            elif k == 1:
                # the one tree holds every boundary vertex
                regular[key] = 0 if boundary else 1
            else:
                regular[key] = k - len({_find(forest, x) for x in held})
    return counts, regular


def _boundary_counts(bg: BoundaryGraph) -> tuple[dict, list[dict]]:
    """Bicolored cycle counts of the boundary graph, in total and per
    boundary component.  Each cycle is walked once and assigned to the
    component of its starting vertex.  The keys are the shared ones of
    the boundary graph's dimension (`_census_plan`)."""
    if bg.is_empty():
        return {}, []
    graph = bg.graph
    keys = _census_plan(graph.dimension).keys
    component_of = [0] * (graph.vertex_count + 1)
    for q, comp in enumerate(bg.components):
        for v in comp:
            component_of[v] = q
    total: dict[frozenset, int] = {}
    per_component: list[dict[frozenset, int]] = [{} for _ in bg.components]
    for i, j in itertools.combinations(graph.colors, 2):
        key = keys[1 << i | 1 << j]
        _, starts = _pair_labels(graph._mates[i], graph._mates[j], ())
        total[key] = len(starts)
        for per_q in per_component:
            per_q[key] = 0
        for v in starts:
            per_component[component_of[v]][key] += 1
    return total, per_component


@_per_graph
def census(g: ColoredGraph) -> ResidueCensus:
    """Full residue census, with boundary counts from the boundary graph.

    Pair residues are labeled by walking them along the two involution
    arrays; the residues of each larger color set come from joining the
    labels of a smaller set along one more color, so union-find runs on
    labels, not vertices.  The regular count of a residue with color d
    is its component count minus the labels that hold a boundary
    vertex.  Boundary counts are walked on the extracted boundary graph
    rather than inferred from parent counts, so census identities
    relating the two remain genuine cross-checks.
    """
    counts, regular_counts = _residue_counts(g)
    boundary_g, per_component = _boundary_counts(boundary_graph(g))
    return ResidueCensus(
        dimension=g.dimension,
        g=MappingProxyType(counts),
        g_dot=MappingProxyType(regular_counts),
        boundary_g=MappingProxyType(boundary_g),
        component_boundary_g=tuple(
            MappingProxyType(per_q) for per_q in per_component
        ),
        tally=g.vertex_tally(),
    )


class FaceVector(NamedTuple):
    """Face counts of the induced simplicial cell complex.

    f[k] is the number of k-simplices; a k-simplex with vertex labels B
    corresponds to a connected component of the residue on the
    complementary colors, so all counts come from component censuses and
    the complex itself is never materialized.
    """

    f: tuple[int, ...]
    euler_characteristic: int


@_per_graph
def face_vector(g: ColoredGraph) -> FaceVector:
    """Face counts from the census: f[k] sums g[complement of B] over the
    (k+1)-color label sets B, so each census count g[R] of a color set R
    of at most d colors adds to f[d - |R|]; the empty complement of all
    d + 1 labels counts every vertex."""
    d = g.dimension
    f = [0] * d + [g.vertex_count]
    for colors, count in census(g).g.items():
        if len(colors) <= d:
            f[d - len(colors)] += count
    chi = sum((-1) ** k * fk for k, fk in enumerate(f))
    return FaceVector(f=tuple(f), euler_characteristic=chi)


class ValidationReport(NamedTuple):
    """Outcome flags of the structural gem checks.

    Well-formed involutions, totality of colors 0..d-1 and proper
    coloring are not reported: `ColoredGraph` construction rejects any
    graph that violates them.
    """

    connected: bool
    bipartite: bool
    contracted: bool
    contracted_per_color: tuple[bool, ...]
    closed: bool
    h: int  # boundary components, 0 for closed gems
    is_crystallization: bool
    f0: int


@_per_graph
def validate(g: ColoredGraph) -> ValidationReport:
    """Check connectivity, orientability proxy and crystallization counts.

    A graph is flagged as a crystallization with h >= 1 boundary
    components when the complement of each color c < d has exactly h
    components, the complement of color d is connected, and the induced
    complex has d*h + 1 labeled vertices; a closed graph qualifies with
    d + 1 labeled vertices.  The labeled vertices number f0, the sum of
    the complement counts, each at least 1, and any connected complement
    makes the graph connected; so the complement counts alone decide,
    and a closed graph qualifies exactly when it is contracted.  All
    component counts are read from the census.
    """
    d = g.dimension
    counts = census(g).g
    keys = _census_plan(d).keys
    full = len(keys) - 1  # the mask of all colors
    # hat[c]: components left after dropping color c
    hat = [counts[keys[full ^ 1 << c]] for c in g.colors]
    per_color = tuple(count == 1 for count in hat)
    h = boundary_graph(g).component_count()
    closed = g.is_closed()
    return ValidationReport(
        connected=counts[keys[full]] == 1,
        bipartite=g.is_bipartite(),
        contracted=all(per_color),
        contracted_per_color=per_color,
        closed=closed,
        h=h,
        is_crystallization=all(per_color) if closed else (
            hat[d] == 1 and all(hat[c] == h for c in range(d))
        ),
        f0=sum(hat),
    )


class ManifoldMeta(NamedTuple):
    """Manifold facts used by the bound formulas.

    `h` and `chi` are derivable from a gem; the fundamental-group rank
    `m` must be supplied by the user (only an upper bound is computable
    combinatorially), as must the boundary genus and the rank of the
    double's fundamental group when the corresponding bounds are wanted.
    Every value is an exact int, h >= 1, and no rank or genus is
    negative.  Each call that reads a record checks it with
    `_require_meta`, so a record built directly meets the same contract
    as one built by `for_graph`.
    """

    h: int
    chi: int
    m: int
    boundary_genus: int | None = None
    double_rank: int | None = None

    @classmethod
    def for_graph(
        cls,
        g: ColoredGraph,
        m: int,
        boundary_genus: int | None = None,
        double_rank: int | None = None,
    ) -> "ManifoldMeta":
        """The metadata of `g`, with h and chi read from the gem.  The
        record passes the metadata gate `_require_meta`, so `g` has
        boundary (h >= 1) and the supplied ranks and genera are
        nonnegative ints."""
        meta = cls(
            h=validate(g).h,
            chi=face_vector(g).euler_characteristic,
            m=m,
            boundary_genus=boundary_genus,
            double_rank=double_rank,
        )
        _require_meta(meta)
        return meta


def _require(g, dimension=None, boundary=None, crystallization=False):
    """Raise a `GemError` naming the first input contract `g` breaks:
    exactly `dimension`; a nonempty boundary if `boundary` is True, an
    empty one if it is False; a crystallization.  Checked in that order."""
    if dimension is not None and g.dimension != dimension:
        raise GemError(
            f"input has dimension {g.dimension}; needs dimension {dimension}"
        )
    if boundary and g.is_closed():
        raise GemError("input is closed; needs a gem with nonempty boundary")
    if boundary is False and not g.is_closed():
        raise GemError("input has boundary; needs a closed gem")
    if crystallization and not validate(g).is_crystallization:
        raise GemError("input is not a crystallization")


def _require_meta(meta, g=None, k_boundary=None):
    """Raise a `GemError` naming the first clause of the metadata contract
    that `meta` breaks: with `g`, the contracts of `_require` for a
    bounded 4-crystallization and the gem's own h and chi; h and chi, and
    m, the boundary genus, the double's rank and `k_boundary` where given,
    exact ints (the rule of `_is_index`: no bool, no float); h >= 1; m
    given; no rank, genus or complexity negative.  Checked in that order."""
    if g is not None:
        _require(g, dimension=4, boundary=True, crystallization=True)
        own = (validate(g).h, face_vector(g).euler_characteristic)
        if (meta.h, meta.chi) != own:
            raise GemError(
                f"metadata (h, chi) = ({meta.h}, {meta.chi}) contradicts the "
                f"gem's (h, chi) = ({own[0]}, {own[1]})"
            )
    ranks = (("m", meta.m), ("boundary_genus", meta.boundary_genus),
             ("double_rank", meta.double_rank), ("k_boundary", k_boundary))
    given = [(name, value) for name, value in ranks if value is not None]
    for name, value in (("h", meta.h), ("chi", meta.chi), *given):
        if type(value) is not int:
            raise GemError(f"{name} must be an int, got {value!r}")
    if meta.h < 1:
        raise GemError("this bound assumes at least one boundary component")
    if meta.m is None:
        raise GemError("this bound needs the rank m in meta")
    for name, value in given:
        if value < 0:
            raise GemError(f"{name} must be nonnegative, got {value}")
