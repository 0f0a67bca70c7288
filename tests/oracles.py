"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's own algorithms:
components come from BFS over explicit adjacency lists (the library
uses union-find), two-colorability from a fresh BFS coloring, and the
face vector is rebuilt from the oracle component counts.  Agreement is
therefore a genuine cross-check, not a tautology.  The dipole
references reuse the library's dipole search (`find_one_dipoles`) but
splice on their own: `remove_one_dipole_reference` rebuilds the whole
graph from its pair lists at every cancellation, against the library's
weld of involution arrays.  `crystallize_double_reference` cancels
h - 1 dipoles of each color below the last and one of the last, each
time the first listed, and `contract_reference` cancels the first
listed until none is left, color by color, both against the library's
single pass of label merges that takes its step counts from the
census.  `regular_genus_reference` evaluates the public
single-scheme formulas scheme by scheme, against the library's shared
scheme table.  `verify_identities_reference` is the identity ledger as it read the
census before the ledger's tables: through the accessors `g_of`,
`g_dot_of` and `boundary_g_of`, formatting each statement in place, and
with the scheme values of the public single-scheme formulas, against
the library's key tables and shared scheme table.
`json_reference` renders a CLI record with the standard
library's `json.dumps`, against the CLI's own writer.
`colored_graph_reference` keeps the pair checks of `ColoredGraph` as
they stood before the constructions began to build involution arrays,
with the exact-int vertex and list-per-color checks added since,
against the constructor that now shares its store step with them, and
`pair_rebuild` rebuilds a construction's output from its edge lists.
`census_join_takes` lists the census's joins with the edges each one
takes, from BFS counts and `connecting_prefix`, a BFS labeling grown
edge by edge by merging sets, against the library's union-find over
labels.
`tiny_gems` lists every labeled gem on at most four vertices, the
ground truth of the exhaustive sweeps.
`export_reference` writes GEM text from the sorted edge lists that
`ColoredGraph.edges` returns, against the writer's own pass over the
involution arrays.
`is_crystallization_reference` states the crystallization predicate
with every one of its conditions, on BFS counts and the oracle face
vector, against `validate`, which reads it from fewer counts; only its
boundary component count h comes from the library's `boundary_graph`.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from fractions import Fraction

from gemkit import (
    Check,
    ColoredGraph,
    GemError,
    GenusProfile,
    IdentityReport,
    Skip,
    boundary_graph,
    census,
    double,
    enumerate_schemes,
    face_vector,
    find_one_dipoles,
    rho_epsilon,
    rho_epsilon_census,
    rho_epsilon_via_double,
    validate,
)
from gemkit.core import MAX_DIMENSION


def colored_graph_reference(dimension, vertex_count, pairs_by_color):
    """The involution arrays that `ColoredGraph(dimension, vertex_count,
    pairs_by_color)` stores, or its `GemError`, checked pair by pair."""
    if not hasattr(pairs_by_color, "__iter__"):
        raise GemError("expected one list of pairs per color")
    if dimension < 1:
        raise GemError("dimension must be a positive integer")
    if dimension > MAX_DIMENSION:
        raise GemError(
            f"dimension {dimension} exceeds the supported maximum "
            f"{MAX_DIMENSION}: the residue census enumerates all "
            f"2^(d+1) - 1 color sets"
        )
    if vertex_count < 1:
        raise GemError("vertex count must be positive")
    pairs_by_color = [list(p) for p in pairs_by_color]
    if len(pairs_by_color) != dimension + 1:
        raise GemError(
            f"expected {dimension + 1} colors, got {len(pairs_by_color)}"
        )
    n = vertex_count
    mates = []
    for color, pairs in enumerate(pairs_by_color):
        if color < dimension and len(pairs) * 2 != n:
            raise GemError(f"color {color} not a total pairing")
        mate = [0] * (n + 1)
        for a, b in pairs:
            if type(a) is not int or type(b) is not int:
                raise GemError(f"color {color}: expected pairs of vertex ints")
            if not (1 <= a <= n and 1 <= b <= n):
                raise GemError(
                    f"color {color}: vertex out of range in pair {a}-{b}"
                )
            if a == b:
                raise GemError(f"color {color}: loop at vertex {a}")
            if mate[a] or mate[b]:
                dup = a if mate[a] else b
                raise GemError(
                    f"color {color}: vertex {dup} paired more than once"
                )
            mate[a], mate[b] = b, a
        mates.append(tuple(mate))
    return tuple(mates)


def perfect_matchings(vertices):
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for i, other in enumerate(rest):
        for matching in perfect_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other), *matching]


def tiny_gems(dimension=4, max_vertices=4):
    """Every gem of the dimension on at most `max_vertices` vertices,
    once for each choice of a perfect matching per color below the last
    and a partial matching, possibly empty, on the last."""
    for n in range(2, max_vertices + 1, 2):
        perfect = list(perfect_matchings(list(range(1, n + 1))))
        partial = sorted({
            part
            for matching in perfect
            for size in range(len(matching) + 1)
            for part in itertools.combinations(matching, size)
        })
        for below in itertools.product(perfect, repeat=dimension):
            for last in partial:
                yield ColoredGraph(dimension, n, [*below, last])


def pair_rebuild(g: ColoredGraph) -> ColoredGraph:
    """`g` built again by the pair constructor from its edge lists."""
    return ColoredGraph(
        g.dimension, g.vertex_count, [g.edges(c) for c in g.colors]
    )


def export_reference(g: ColoredGraph) -> str:
    """GEM v1 text of `g`, color by color from `g.edges(c)`."""
    lines = [
        "gem-format 1",
        f"dim {g.dimension}",
        f"vertices {g.vertex_count}",
    ]
    for c in g.colors:
        pairs = " ".join(f"{a}-{b}" for a, b in g.edges(c))
        lines.append(f"color {c}:" + (f" {pairs}" if pairs else ""))
    lines.append("end")
    return "\n".join(lines) + "\n"


def adjacency(g: ColoredGraph, colors) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in g.vertices}
    for c in colors:
        for a, b in g.edges(c):
            adj[a].append(b)
            adj[b].append(a)
    return adj


def bfs_components(g: ColoredGraph, colors) -> list[set[int]]:
    adj = adjacency(g, colors)
    seen: set[int] = set()
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(comp)
    return out


def bfs_component_count(g: ColoredGraph, colors) -> int:
    return len(bfs_components(g, colors))


def connecting_prefix(g: ColoredGraph, colors, c) -> int | None:
    """The length of the shortest prefix of `g.edges(c)` that makes the
    residue on `colors` connected once added to it, or None if the whole
    list leaves it split.  Components come from BFS, and each edge of
    the prefix merges the smaller of its ends' components into the
    larger."""
    comps = [set(comp) for comp in bfs_components(g, colors)]
    left = len(comps)
    if left == 1:
        return 0
    comp_of = {v: comp for comp in comps for v in comp}
    for length, (a, b) in enumerate(g.edges(c), 1):
        big, small = comp_of[a], comp_of[b]
        if big is small:
            continue
        if len(big) < len(small):
            big, small = small, big
        big |= small
        for v in small:
            comp_of[v] = big
        left -= 1
        if left == 1:
            return length
    return None


def census_join_takes(g: ColoredGraph) -> list[tuple[tuple, int, int]]:
    """The joins that the residue census makes, in its order, as
    (colors, label count, edges taken), from BFS counts and
    `connecting_prefix` alone.

    A set of three or more colors is joined, from its parent (the set
    without its top color c) and the edge list of c, exactly when the
    parent is split; the label count is the parent's component count.
    The join takes the edges of c in `g.edges(c)` order up to the first
    one that connects the parent, or all of them if the set is split.
    The pairs (i, j) come in ascending order, and over each pair its sets
    come in lexicographic order of their further colors, the census's
    depth-first order."""
    d = g.dimension
    joins = []
    for i, j in itertools.combinations(g.colors, 2):
        above = sorted(
            further
            for size in range(1, d - j + 1)
            for further in itertools.combinations(range(j + 1, d + 1), size)
        )
        for further in above:
            parent, c = (i, j, *further[:-1]), further[-1]
            count = bfs_component_count(g, parent)
            if count > 1:
                length = connecting_prefix(g, parent, c)
                taken = len(g.edges(c)) if length is None else length
                joins.append(((*parent, c), count, taken))
    return joins


def bfs_regular_component_count(g: ColoredGraph, colors) -> int:
    colors = list(colors)
    return sum(
        1
        for comp in bfs_components(g, colors)
        if all(g.mate(v, c) is not None for v in comp for c in colors)
    )


def bfs_is_bipartite(g: ColoredGraph) -> bool:
    adj = adjacency(g, g.colors)
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def oracle_face_vector(g: ColoredGraph) -> tuple[int, ...]:
    d = g.dimension
    all_colors = set(g.colors)
    f = []
    for k in range(d + 1):
        total = 0
        for labels in itertools.combinations(sorted(all_colors), k + 1):
            rest = all_colors - set(labels)
            if rest:
                total += bfs_component_count(g, rest)
            else:
                total += g.vertex_count
        f.append(total)
    return tuple(f)


def is_crystallization_reference(g: ColoredGraph) -> bool:
    """The crystallization predicate with all of its conditions: connected,
    and either closed with d + 1 labeled vertices (f0), or with h >= 1
    boundary components, exactly h components after dropping each color
    c < d, one after dropping color d, and d*h + 1 labeled vertices."""
    d = g.dimension
    full = set(g.colors)
    connected = bfs_component_count(g, full) == 1
    f0 = oracle_face_vector(g)[0]
    if g.is_closed():
        return connected and f0 == d + 1
    h = boundary_graph(g).component_count()
    return (
        connected
        and bfs_component_count(g, full - {d}) == 1
        and all(bfs_component_count(g, full - {c}) == h for c in range(d))
        and f0 == d * h + 1
    )


def oracle_euler_characteristic(g: ColoredGraph) -> int:
    return sum((-1) ** k * fk for k, fk in enumerate(oracle_face_vector(g)))


def weak_semi_simple_reference(
    g: ColoredGraph, m: int, boundary_genus: int | None
) -> tuple[bool | None, bool]:
    """Weak semi-simplicity of a bounded 4-dimensional crystallization,
    decided relabeling by relabeling.

    For each of the 24 orders s of colors 0..3 the common equalities
    g_{s0 s1 s2} = g_{s1 s2 s3} = m + h and gdot_{s2 s3 4} =
    gdot_{s0 s3 4} = h - 1 are evaluated on BFS counts, then each type's
    own equality on g_{s0 s1 4}.  Returns (type I, type II); type I is
    None without a boundary genus.
    """
    triples = itertools.combinations(range(5), 3)
    counts = {
        frozenset(t): (
            bfs_component_count(g, t), bfs_regular_component_count(g, t)
        )
        for t in triples
    }

    def g_(*colors):
        return counts[frozenset(colors)][0]

    def g_dot(*colors):
        return counts[frozenset(colors)][1]

    # a crystallization with h boundary components has h residues
    # without color 0
    h = bfs_component_count(g, (1, 2, 3, 4))
    verdicts = []
    for s0, s1, s2, s3 in itertools.permutations(range(4)):
        common = (
            g_(s0, s1, s2) == m + h
            and g_(s1, s2, s3) == m + h
            and g_dot(s2, s3, 4) == h - 1
            and g_dot(s0, s3, 4) == h - 1
        )
        g014 = g_(s0, s1, 4)
        type_one = None
        if boundary_genus is not None:
            type_one = common and g014 == boundary_genus + 2 * h - 1
        verdicts.append((type_one, common and g014 == m + 2 * h - 1))
    type_one = None
    if boundary_genus is not None:
        type_one = any(one for one, _ in verdicts)
    return type_one, any(two for _, two in verdicts)


def remove_one_dipole_reference(g: ColoredGraph, dipole) -> ColoredGraph:
    """`remove_one_dipole` by the pair constructor: the edges that miss
    the dipole's two vertices, relabeled in vertex order, plus one welded
    pair per other color whose two loose ends both exist.  A dipole that
    spans the whole gem leaves no vertex and is refused by name."""
    if not dipole.verify(g):
        raise GemError(f"stale dipole {dipole}: certificate fails")
    keep = [w for w in g.vertices if w not in (dipole.u, dipole.v)]
    if not keep:
        raise GemError(f"cancelling {dipole} would leave no vertex")
    u, v, dc = dipole.u, dipole.v, dipole.color
    relabel = {w: i + 1 for i, w in enumerate(keep)}
    pairs_by_color = []
    for c in g.colors:
        pairs = [
            (relabel[a], relabel[b])
            for a, b in g.edges(c)
            if a not in (u, v) and b not in (u, v)
        ]
        if c != dc:
            a, b = g.mate(u, c), g.mate(v, c)
            if a is not None and b is not None:
                pairs.append((relabel[a], relabel[b]))
            # if only one side is matched (possible for the last color),
            # that endpoint simply becomes a boundary vertex
        pairs_by_color.append(pairs)
    return ColoredGraph(g.dimension, g.vertex_count - 2, pairs_by_color)


def cancel_dipoles_reference(doubled: ColoredGraph, h: int) -> ColoredGraph:
    """Cancel h-1 1-dipoles of each color below the last, then one of the
    last color, each time the first that `find_one_dipoles` lists."""
    d = doubled.dimension
    out = doubled
    for color in range(d):
        for step in range(h - 1):
            dipoles = find_one_dipoles(out, color)
            if not dipoles:
                raise GemError(
                    f"no 1-dipole of color {color} available at step {step}"
                )
            out = remove_one_dipole_reference(out, dipoles[0])
    dipoles = find_one_dipoles(out, d)
    if not dipoles:
        raise GemError(f"no 1-dipole of color {d} available")
    return remove_one_dipole_reference(out, dipoles[0])


def contract_reference(g: ColoredGraph) -> ColoredGraph:
    """Color by color, cancel the first 1-dipole that `find_one_dipoles`
    lists until it lists none; no step count is given."""
    out = g
    for color in g.colors:
        while dipoles := find_one_dipoles(out, color):
            out = remove_one_dipole_reference(out, dipoles[0])
    return out


def crystallize_double_reference(g: ColoredGraph) -> ColoredGraph:
    """`crystallize_double` by repeated public dipole moves, with the same
    checks and error messages."""
    if g.is_closed():
        raise GemError("input is closed; needs a gem with nonempty boundary")
    report = validate(g)
    if not report.is_crystallization:
        raise GemError("input is not a crystallization")
    h = report.h
    d = g.dimension
    doubled = double(g)
    doubled_census = census(doubled)
    out = cancel_dipoles_reference(doubled, h)
    final = validate(out)
    if not (final.closed and final.is_crystallization):
        raise GemError("dipole cancellation did not yield a closed "
                       "crystallization")
    if d == 4:
        out_census = census(out)
        for i, j, k in itertools.combinations(range(4), 3):
            if out_census.g_of(i, j, k) != doubled_census.g_of(i, j, k) - h:
                raise GemError(
                    f"census check failed: g_{i}{j}{k} of the contracted "
                    "double is not the doubled count minus h"
                )
        for i, j in itertools.combinations(range(4), 2):
            if out_census.g_of(i, j, 4) != (
                doubled_census.g_of(i, j, 4) - 2 * (h - 1)
            ):
                raise GemError(
                    f"census check failed: g_{i}{j}4 of the contracted "
                    "double is not the doubled count minus 2(h-1)"
                )
    return out


def regular_genus_reference(g: ColoredGraph) -> GenusProfile:
    """`regular_genus` as a loop over the schemes that calls the public
    single-scheme functions, with the same checks and error message."""
    entries = tuple(
        rho_epsilon(g, scheme) for scheme in enumerate_schemes(g.dimension)
    )
    diagnostics = []
    for entry in entries:
        if entry.rho.denominator != 1:
            diagnostics.append(
                f"non-integral genus {entry.rho} at scheme {entry.scheme}"
            )
    if g.dimension == 4 and not g.is_closed():
        report = validate(g)
        if report.is_crystallization:
            for entry in entries:
                via_double = rho_epsilon_via_double(g, entry.scheme)
                via_census = rho_epsilon_census(g, entry.scheme)
                if not (entry.rho == via_double == via_census):
                    raise GemError(
                        f"genus formulas disagree at scheme {entry.scheme}: "
                        f"{entry.rho} (embedding) vs {via_double} (double) "
                        f"vs {via_census} (census)"
                    )
    best = min(entries, key=lambda e: (e.rho, e.scheme))
    return GenusProfile(
        entries=entries,
        rho=best.rho,
        argmin=best.scheme,
        diagnostics=tuple(diagnostics),
    )


def _reference_check(name, statement, left, right, relation="=="):
    passed = left == right if relation == "==" else left >= right
    sharp = None if relation == "==" else left == right
    return Check(name=name, statement=statement, left=left, right=right,
                 relation=relation, passed=passed, sharp=sharp)


def _reference_triple_relations(counts, n, mark=""):
    prefix = "double: " if mark else ""
    return [
        _reference_check(
            "closed-triple-relation",
            f"{prefix}2 g{mark}_{i}{j}{k} == g{mark}_{i}{j} + g{mark}_{i}{k} "
            f"+ g{mark}_{j}{k} - n{mark}/2",
            2 * counts.g_of(i, j, k),
            counts.g_of(i, j) + counts.g_of(i, k) + counts.g_of(j, k) - n // 2,
        )
        for i, j, k in itertools.combinations(range(5), 3)
    ]


def verify_identities_reference(g: ColoredGraph) -> IdentityReport:
    """`verify_identities` statement by statement through the census
    accessors, for a 4-gem."""
    counts = census(g)
    tally = g.vertex_tally()
    schemes = enumerate_schemes(4)
    if g.is_closed():
        checks = _reference_triple_relations(counts, g.vertex_count)
        for scheme in schemes:
            profile = rho_epsilon(g, scheme)
            reduced_chi = (
                sum(
                    counts.g_dot_of(scheme[i], scheme[(i + 1) % 5])
                    for i in range(5)
                )
                - 3 * tally.p
            )
            checks.append(
                _reference_check(
                    "closed-embedding-reduction",
                    f"scheme {scheme}: chi_eps == cycle sum - 3p, no holes",
                    (profile.chi, profile.holes),
                    (reduced_chi, 0),
                )
            )
        skipped = tuple(
            Skip(name=family, reason="closed input")
            for family in (
                "interior-cycle-floor", "boundary-census-split",
                "facet-count-split", "boundary-cycle-sum",
                "per-boundary-component-sphere-relation",
                "genus-formula-agreement", "double-census",
                "vertex-count-identity", "vertex-sum-identity",
            )
        )
        return IdentityReport(checks=tuple(checks), skipped=skipped)

    report = validate(g)
    h = report.h
    crystal = report.is_crystallization
    skipped = () if crystal else tuple(
        Skip(name=family, reason="not a crystallization")
        for family in (
            "interior-cycle-floor", "boundary-cycle-sum",
            "per-boundary-component-sphere-relation",
            "vertex-count-identity", "vertex-sum-identity",
            "closed-triple-relation", "genus-formula-agreement",
        )
    )
    pairs = list(itertools.combinations(range(4), 2))
    checks = [
        _reference_check(
            "crystallization-structure",
            "labeled vertex count f0 == 4h + 1 and residue counts "
            "match a crystallization",
            (report.f0, crystal),
            (4 * h + 1, True),
        )
    ]
    if crystal:
        checks += [
            _reference_check(
                "interior-cycle-floor",
                f"gdot_{a}{b}4 >= h - 1",
                counts.g_dot_of(a, b, 4),
                h - 1,
                ">=",
            )
            for a, b in pairs
        ]
    checks += [
        _reference_check(
            "boundary-census-split",
            f"g_{i}{j}4 == gdot_{i}{j}4 + bd_g_{i}{j}",
            counts.g_of(i, j, 4),
            counts.g_dot_of(i, j, 4) + counts.boundary_g_of(i, j),
        )
        for i, j in pairs
    ]
    checks += [
        _reference_check(
            "facet-count-split",
            f"g_{i}4 == gdot_{i}4 + p_bar",
            counts.g_of(i, 4),
            counts.g_dot_of(i, 4) + tally.p_bar,
        )
        for i in range(4)
    ]
    if crystal:
        checks.append(
            _reference_check(
                "boundary-cycle-sum",
                "sum bd_g_ij == 4h + 2 p_bar",
                sum(counts.boundary_g_of(i, j) for i, j in pairs),
                4 * h + tally.boundary,
            )
        )
        bd = boundary_graph(g)
        for q, per_q in enumerate(counts.component_boundary_g):
            size = len(bd.components[q])
            checks += [
                _reference_check(
                    "per-boundary-component-sphere-relation",
                    f"component {q}: bd_g_{i}{j} + bd_g_{i}{k} + "
                    f"bd_g_{j}{k} == 2 + n_q/2",
                    sum(per_q[frozenset(p)] for p in ((i, j), (i, k), (j, k))),
                    2 + size // 2,
                )
                for i, j, k in itertools.combinations(range(4), 3)
            ]
    doubled = double(g)
    dcounts = census(doubled)
    for colors in (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (0, 1, 4), (0, 1), (0, 2, 4), (0, 2), (0, 3, 4), (0, 3),
        (1, 2, 4), (1, 2), (1, 3, 4), (1, 3), (2, 3, 4), (2, 3),
        (0, 4), (1, 4), (2, 4), (3, 4),
    ):
        s = "".join(map(str, colors))
        g_s = counts.g_of(*colors)
        if 4 in colors:
            rhs, right = f"g_{s} + gdot_{s}", g_s + counts.g_dot_of(*colors)
        else:
            rhs, right = f"2 g_{s}", 2 * g_s
        checks.append(_reference_check(
            "double-census", f"g'_{s} == {rhs}", dcounts.g_of(*colors), right
        ))
    if crystal:
        chi = face_vector(g).euler_characteristic
        all_triples = list(itertools.combinations(range(5), 3))
        checks.append(
            _reference_check(
                "vertex-count-identity",
                "2p == 6 chi + sum g'_ijk - 12h - 6",
                tally.total,
                6 * chi
                + sum(dcounts.g_of(*t) for t in all_triples)
                - 12 * h
                - 6,
            )
        )
        checks.append(
            _reference_check(
                "vertex-sum-identity",
                "2p + 2 p_bar == 6 chi + 2 sum g_ijk - 16h - 6",
                tally.total + tally.boundary,
                6 * chi
                + 2 * sum(counts.g_of(*t) for t in all_triples)
                - 16 * h
                - 6,
            )
        )
        checks += _reference_triple_relations(
            dcounts, doubled.vertex_count, "'"
        )
        for scheme in schemes:
            rho = rho_epsilon(g, scheme).rho
            checks.append(
                _reference_check(
                    "genus-formula-agreement",
                    f"scheme {scheme}: embedding == double == "
                    "census formula",
                    (rho, rho),
                    (
                        rho_epsilon_via_double(g, scheme),
                        rho_epsilon_census(g, scheme),
                    ),
                )
            )
    return IdentityReport(checks=tuple(checks), skipped=skipped)


def _jsonable(value):
    """A record in JSON form: records (NamedTuples, found by `_fields`)
    become objects of their fields, other tuples become lists, and
    rationals become ints or "p/q" strings."""
    if value is None or isinstance(value, (str, int)):  # bool is an int
        return value
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "_fields"):
        return {n: _jsonable(getattr(value, n)) for n in value._fields}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def json_reference(value) -> str:
    """The CLI's JSON text of a record, by the standard library."""
    return json.dumps(_jsonable(value), sort_keys=True, indent=2)
