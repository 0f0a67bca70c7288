"""Regular-genus machinery, gem-complexity and the lower-bound formulas.

Genus values are exact rationals with denominator 1 or 2.  They are
reported verbatim; a non-integral value on a well-formed gem is
surfaced as a diagnostic rather than rounded away.  Inside this module
each formula computes twice the genus as an exact int, and the genus
values are compared and minimized as those ints.  A value leaves the
module only as a `Fraction`, built by `_half`, which keeps one shared
`Fraction` per value: every profile, public single-scheme result and
ledger side of one value is the same object.

Each scheme genus has three formulas: the embedding surface
(`rho_epsilon`), the double's census (`rho_epsilon_via_double`) and the
input's own census (`rho_epsilon_census`).  Each formula is written
once, as a kernel over already computed census data that reads its own
census sets.  A kernel takes the bit masks 1 << c of the scheme's
colors (`_masks`) and reads each count by one dict lookup on the
dimension's shared key table (`core._census_plan`), as in
`g[key[b0 | b2 | b4]]`.  The scheme table `_scheme_table` holds all
three values for every scheme, as twice-genus ints beside the embedding
profile; it builds each scheme's masks once and hands them to the three
kernels.  Nothing per scheme outlives its row, since there are d!/2
schemes.  Like the census, the table is a per-graph analysis, computed
at most once per graph object; the schemes it runs over are listed once
per dimension d <= 7 (`_schemes`) rather than once per gem.
`regular_genus` and the `verify` ledger read it, and the public
single-scheme functions build their scheme's masks and call the same
kernels.  `regular_genus` is a per-graph analysis too: it checks and
minimizes the table once per graph, and every later caller, such as
`_floors`, reads the stored profile.  A "genus formulas disagree"
error is not stored, so each call raises it again.

Likewise `_floors` is the one evaluation of the paper's lower bounds,
each an attained value read from the gem against a bound read from its
metadata; the `verify` bounds ledger and `certify_minimal` read it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .core import (
    ColoredGraph,
    GemError,
    ManifoldMeta,
    _census_plan,
    _per_graph,
    _require,
    _require_meta,
    census,
    face_vector,
    validate,
)
from .constructions import double


Scheme = tuple[int, ...]

# `regular_genus` evaluates all d!/2 schemes: at d = 9 (181 440 of
# them) `gemkit genus` on a 2-vertex gem took 1.9-3.5 s with 76-77 MB
# max RSS (eight runs, Python 3.11.7, shared 2-vCPU host), and d = 10
# would take ten times that.
MAX_SCHEME_DIMENSION = 9
_SCHEMES_NEED_TWO = "schemes need dimension >= 2"


def enumerate_schemes(d: int) -> list[Scheme]:
    """All cyclic color orderings ending in d, deduplicated by reversal.

    Each reversal pair keeps its lexicographically smaller head, and the
    permutations come in lexicographic order, so the result is sorted:
    for d = 4 there are 4!/2 = 12 of them.  The dimension is at most
    `MAX_SCHEME_DIMENSION`.
    """
    if d < 2:
        raise GemError(_SCHEMES_NEED_TWO)
    if d > MAX_SCHEME_DIMENSION:
        raise GemError(
            f"dimension {d} exceeds the scheme maximum "
            f"{MAX_SCHEME_DIMENSION}: it has {math.factorial(d) // 2} "
            "schemes (d!/2)"
        )
    return [
        p + (d,) for p in itertools.permutations(range(d)) if p < p[::-1]
    ]


@functools.cache
def _schemes(d: int) -> tuple[Scheme, ...]:
    """`enumerate_schemes(d)` as one tuple per dimension, built on first
    use and shared by the scheme tables of dimension d <= 7 and by the
    `verify` tables."""
    return tuple(enumerate_schemes(d))


def _check_scheme(g: ColoredGraph, scheme: Scheme) -> None:
    d = g.dimension
    if d < 2:
        raise GemError(_SCHEMES_NEED_TWO)
    if (
        tuple(map(type, scheme)) != (int,) * (d + 1)
        or sorted(scheme) != list(range(d + 1))
        or scheme[-1] != d
    ):
        raise GemError(f"scheme {scheme} is not a color cycle for d={d}")


class SchemeProfile(NamedTuple):
    """Genus data of one embedding scheme: the surface Euler
    characteristic, its hole count, and the resulting genus value."""

    scheme: Scheme
    chi: int
    holes: int
    rho: Fraction


class GenusProfile(NamedTuple):
    """Per-scheme genus table plus the minimizing scheme.

    `rho` is the minimum over all schemes; ties resolve to the
    lexicographically smallest canonical scheme.  `diagnostics` carries
    warnings such as non-integral values.
    """

    entries: tuple[SchemeProfile, ...]
    rho: Fraction
    argmin: Scheme
    diagnostics: tuple[str, ...] = ()


def _masks(scheme: Scheme) -> list[int]:
    """The bit mask 1 << c of each color c of `scheme`, in scheme order."""
    return [1 << c for c in scheme]


@functools.cache
def _half(twice: int) -> Fraction:
    """The genus value twice/2, as one shared `Fraction` per value: every
    reported genus is built here, so equal values are one object."""
    return Fraction(twice, 2)


def _embedding(
    counts, scheme: Scheme, bits: list[int]
) -> tuple[SchemeProfile, int]:
    """`rho_epsilon` of a gem with census `counts`, for `scheme` with bit
    masks `bits`, and twice its genus."""
    d = counts.dimension
    key = _census_plan(d).keys
    g_dot = counts.g_dot
    cycle_sum = 0
    before = bits[-1]
    for bit in bits:
        cycle_sum += g_dot[key[before | bit]]
        before = bit
    tally = counts.tally
    p_bar = tally.p_bar
    chi = cycle_sum + (1 - d) * tally.p_dot + (2 - d) * p_bar
    holes = counts.boundary_g.get(key[bits[0] | bits[-2]], 0) if p_bar else 0
    twice = 2 - chi - holes
    return SchemeProfile(scheme, chi, holes, _half(twice)), twice


def _via_double(
    doubled_counts, counts, h: int, chi: int, bits: list[int]
) -> int:
    """Twice `rho_epsilon_via_double` of a bounded 4-crystallization with
    h boundary components, Euler characteristic chi and census `counts`,
    whose double has census `doubled_counts`, for the scheme with bit
    masks `bits`."""
    key = _census_plan(4).keys
    b0, b1, b2, b3, b4 = bits
    g = doubled_counts.g
    # the triples {e_i, e_i+2, e_i+4} of the cycle's distance-2 steps,
    # i = 0..4
    triple_sum = (
        g[key[b0 | b2 | b4]] + g[key[b0 | b1 | b3]] + g[key[b1 | b2 | b4]]
        + g[key[b0 | b2 | b3]] + g[key[b1 | b3 | b4]]
    )
    holes = counts.boundary_g.get(key[b0 | b3], 0)
    return 2 * (-1 - 4 * h + 2 * chi) + triple_sum - holes


def _via_census(counts, h: int, chi: int, bits: list[int]) -> int:
    """Twice `rho_epsilon_census` of a bounded 4-crystallization with h
    boundary components, Euler characteristic chi and census `counts`,
    for the scheme with bit masks `bits`."""
    key = _census_plan(4).keys
    b0, b1, b2, b3, b4 = bits
    g, g_dot = counts.g, counts.g_dot
    return 2 * (
        -1 - 4 * h + 2 * chi
        + g[key[b0 | b1 | b3]] + g[key[b0 | b2 | b3]] + g[key[b1 | b3 | b4]]
        + g_dot[key[b0 | b2 | b4]] + g_dot[key[b1 | b2 | b4]]
    )


def rho_epsilon(g: ColoredGraph, scheme: Scheme) -> SchemeProfile:
    """Genus of the regular embedding surface for one scheme.

    chi = sum of bicolored cycle counts over cyclically adjacent color
    pairs, plus (1-d) per internal vertex pair and (2-d) per boundary
    vertex pair; the hole count is the boundary cycle count of the pair
    (first color, color before last).
    """
    _check_scheme(g, scheme)
    return _embedding(census(g), scheme, _masks(scheme))[0]


def rho_epsilon_via_double(g: ColoredGraph, scheme: Scheme) -> Fraction:
    """Scheme genus from the census of the doubled graph.

    Evaluates -1 - 4h + 2*chi + (1/2) * sum over the cycle of the
    doubled graph's triple counts at cyclic distance-2 steps, minus half
    the boundary cycle count of the (first, fourth) color pair.
    """
    _require(g, dimension=4, boundary=True, crystallization=True)
    _check_scheme(g, scheme)
    h, chi = validate(g).h, face_vector(g).euler_characteristic
    return _half(
        _via_double(census(double(g)), census(g), h, chi, _masks(scheme))
    )


def rho_epsilon_census(g: ColoredGraph, scheme: Scheme) -> Fraction:
    """Scheme genus straight from the input's own residue census,
    without building the double."""
    _require(g, dimension=4, boundary=True, crystallization=True)
    _check_scheme(g, scheme)
    h, chi = validate(g).h, face_vector(g).euler_characteristic
    return _half(_via_census(census(g), h, chi, _masks(scheme)))


@_per_graph
def _scheme_table(
    g: ColoredGraph,
) -> tuple[tuple[SchemeProfile, int, int | None, int | None], ...]:
    """One row per scheme of `_schemes`: the `rho_epsilon` profile and
    twice its genus, then twice the `rho_epsilon_via_double` and
    `rho_epsilon_census` values, which are None unless g is a
    4-dimensional crystallization with boundary.

    Nothing per scheme outlives its row.  The rows are evaluated, never
    compared: the callers compare them.
    """
    d = g.dimension
    # shared up to d = 7 (2 520 schemes, about 0.3 MB); at d = 8 they
    # would keep 2.4 MB alive, and the table's d!/2 rows of kernel work
    # dwarf listing them again
    schemes = _schemes(d) if d <= 7 else enumerate_schemes(d)
    counts = census(g)
    try:
        _require(g, dimension=4, boundary=True, crystallization=True)
    except GemError:
        return tuple(
            (*_embedding(counts, scheme, _masks(scheme)), None, None)
            for scheme in schemes
        )
    h, chi = validate(g).h, face_vector(g).euler_characteristic
    doubled_counts = census(double(g))
    rows = []
    for scheme in schemes:
        bits = _masks(scheme)
        rows.append((
            *_embedding(counts, scheme, bits),
            _via_double(doubled_counts, counts, h, chi, bits),
            _via_census(counts, h, chi, bits),
        ))
    return tuple(rows)


@_per_graph
def regular_genus(g: ColoredGraph) -> GenusProfile:
    """Minimum scheme genus over all schemes.

    For 4-dimensional crystallizations with boundary, every scheme is
    additionally evaluated through the doubled-graph formula and the
    direct census formula; any disagreement signals an encoding bug and
    raises instead of being ignored.
    """
    table = _scheme_table(g)
    # every row has the two cross-checks, or none has
    if table[0][2] is not None:
        for entry, twice, via_double, via_census in table:
            if not twice == via_double == via_census:
                raise GemError(
                    f"genus formulas disagree at scheme {entry.scheme}: "
                    f"{entry.rho} (embedding) vs {_half(via_double)} "
                    f"(double) vs {_half(via_census)} (census)"
                )
    # the schemes ascend, so the first minimum breaks ties by scheme
    best = min(table, key=operator.itemgetter(1))[0]
    return GenusProfile(
        entries=tuple([row[0] for row in table]),
        rho=best.rho,
        argmin=best.scheme,
        diagnostics=tuple(
            f"non-integral genus {entry.rho} at scheme {entry.scheme}"
            for entry, twice, _, _ in table
            if twice & 1
        ),
    )


def gem_complexity(g: ColoredGraph) -> int:
    """Half the vertex count minus one, for crystallizations.

    This is the complexity contributed by this particular gem; it upper
    bounds the manifold's gem-complexity, with equality whenever a
    matching lower bound certifies minimality.
    """
    _require(g, crystallization=True)
    return g.vertex_count // 2 - 1


def complexity_lower_bounds(
    meta: ManifoldMeta, k_boundary: int | None = None
) -> tuple[int, int | None]:
    """Gem-complexity lower bounds.

    Returns 3*chi + 7m + 7h - 10 and, when the boundary's gem-complexity
    is supplied, k_boundary + 3*chi + 4m + 6h - 9.  A gem-complexity is
    never negative.
    """
    _require_meta(meta, k_boundary=k_boundary)
    first = 3 * meta.chi + 7 * meta.m + 7 * meta.h - 10
    second = (
        k_boundary + 3 * meta.chi + 4 * meta.m + 6 * meta.h - 9
        if k_boundary is not None
        else None
    )
    return first, second


def vertex_lower_bounds(meta: ManifoldMeta) -> tuple[int, int, int]:
    """Lower bounds on 2p, 2p + 2p_bar and 2p - 2p_bar."""
    _require_meta(meta)
    return (
        6 * meta.chi + 14 * meta.m + 14 * meta.h - 18,
        6 * meta.chi + 20 * meta.m + 16 * meta.h - 18,
        6 * meta.chi + 8 * meta.m + 12 * meta.h - 18,
    )


def genus_lower_bounds(
    meta: ManifoldMeta,
) -> tuple[int | None, int, int | None]:
    """Regular-genus lower bounds.

    Returns (2*chi + 2*double_rank - 2 when the double's rank is known,
    2*chi + 3m + 2h - 4 always, boundary_genus + 2*chi + 2m + 2h - 4
    when the boundary genus is known).
    """
    _require_meta(meta)
    first = (
        2 * meta.chi + 2 * meta.double_rank - 2
        if meta.double_rank is not None
        else None
    )
    second = 2 * meta.chi + 3 * meta.m + 2 * meta.h - 4
    third = (
        meta.boundary_genus + 2 * meta.chi + 2 * meta.m + 2 * meta.h - 4
        if meta.boundary_genus is not None
        else None
    )
    return first, second, third


def rank_upper_bound(g: ColoredGraph) -> int:
    """Combinatorial cap on the fundamental-group rank.

    Minimum over unordered color pairs {a, b} of
    g(drop a and b) - g(drop a) - g(drop b) + 1.
    """
    if g.dimension < 2:
        # a 1-gem has no residue with two colors dropped
        raise GemError("rank bound needs dimension at least 2")
    _require(g, crystallization=True)
    counts = census(g).g
    keys = _census_plan(g.dimension).keys
    full = len(keys) - 1  # the mask of all colors
    return min(
        counts[keys[full ^ 1 << a ^ 1 << b]]
        - counts[keys[full ^ 1 << a]]
        - counts[keys[full ^ 1 << b]]
        + 1
        for a, b in itertools.combinations(g.colors, 2)
    )


def boundary_genus_cap(g: ColoredGraph) -> int:
    """Upper bound on the summed boundary genus: min over color pairs of
    the boundary cycle count minus the number of boundary components."""
    _require(g, boundary=True)
    counts = census(g)
    h = len(counts.component_boundary_g)
    return min(
        counts.boundary_g_of(i, j) - h
        for i, j in itertools.combinations(range(g.dimension), 2)
    )


class WeakSemiSimpleReport(NamedTuple):
    """Verdicts of both types; type I is None without a boundary genus."""

    type_one: bool | None
    type_two: bool


def weak_semi_simple(g: ColoredGraph, meta: ManifoldMeta) -> WeakSemiSimpleReport:
    """Recognize weak semi-simplicity of either type.

    The defining census equalities are stated relative to a color
    ordering, so they are checked under every relabeling of colors
    0..3 with the last color fixed.  Type I needs the boundary genus in
    `meta`; when it is absent the type I verdict is None.
    """
    _require_meta(meta, g)
    h = meta.h
    counts = census(g)
    g_counts, g_dot = counts.g, counts.g_dot
    key = _census_plan(4).keys
    # g_{s0 s1 4} of every relabeling that meets the common equalities,
    # read by the bit masks b of s0..s3 (16 is color 4's)
    g014 = {
        g_counts[key[b0 | b1 | 16]]
        for b0, b1, b2, b3 in itertools.permutations((1, 2, 4, 8))
        if g_counts[key[b0 | b1 | b2]] == meta.m + h
        and g_counts[key[b1 | b2 | b3]] == meta.m + h
        and g_dot[key[b2 | b3 | 16]] == h - 1
        and g_dot[key[b0 | b3 | 16]] == h - 1
    }
    type_one = None
    if meta.boundary_genus is not None:
        type_one = meta.boundary_genus + 2 * h - 1 in g014
    return WeakSemiSimpleReport(
        type_one=type_one, type_two=meta.m + 2 * h - 1 in g014
    )


class MinimalityReport(NamedTuple):
    """Comparison of a gem's attained complexity/size/genus against the
    lower bounds computed from its manifold metadata."""

    complexity: int
    complexity_bound: int
    complexity_certified: bool
    vertex_counts: tuple[int, int, int]
    vertex_bounds: tuple[int, int, int]
    vertex_bounds_attained: tuple[bool, bool, bool]
    rho: Fraction
    genus_bound: int
    genus_bound_attained: bool


def _floors(g: ColoredGraph, meta: ManifoldMeta,
            k_boundary: int | None = None) -> tuple[tuple, ...]:
    """One (family, statement, attained, bound, skipped as, reason) row
    per bound on `g`, in ledger order; a bound of None is one whose
    metadata was not supplied."""
    _require_meta(meta, g, k_boundary)
    tally = g.vertex_tally()
    vb1, vb2, vb3 = vertex_lower_bounds(meta)
    kb1, kb2 = complexity_lower_bounds(meta, k_boundary)
    k = gem_complexity(g)
    gb1, gb2, gb3 = genus_lower_bounds(meta)
    rho = regular_genus(g).rho
    return (
        ("vertex-floor", "2p >= bound", tally.total, vb1, None, None),
        ("vertex-floor", "2p + 2p_bar >= bound",
         tally.total + tally.boundary, vb2, None, None),
        ("vertex-floor", "2p - 2p_bar >= bound",
         tally.total - tally.boundary, vb3, None, None),
        ("complexity-floor", "k >= 3 chi + 7m + 7h - 10", k, kb1, None, None),
        ("complexity-floor", "k >= k(boundary) + 3 chi + 4m + 6h - 9", k, kb2,
         "complexity-floor-with-boundary",
         "boundary gem-complexity not supplied"),
        ("genus-floor", "rho >= 2 chi + 3m + 2h - 4", rho, gb2, None, None),
        ("genus-floor", "rho >= 2 chi + 2 (double rank) - 2", rho, gb1,
         "genus-floor-via-double-rank", "double rank not supplied"),
        ("genus-floor", "rho >= boundary genus + 2 chi + 2m + 2h - 4", rho,
         gb3, "genus-floor-with-boundary", "boundary genus not supplied"),
    )


def certify_minimal(g: ColoredGraph, meta: ManifoldMeta) -> MinimalityReport:
    """Certify minimality by matching attained values against bounds.

    `g` must be a bounded 4-crystallization whose h and chi `meta`
    states."""
    pairs = [row[2:4] for row in _floors(g, meta)]  # (attained, bound)
    (complexity, bound), (rho, genus_bound) = pairs[3], pairs[5]
    vertex_counts, vertex_bounds = zip(*pairs[:3])
    return MinimalityReport(
        complexity=complexity,
        complexity_bound=bound,
        complexity_certified=complexity == bound,
        vertex_counts=vertex_counts,
        vertex_bounds=vertex_bounds,
        vertex_bounds_attained=tuple(a == b for a, b in pairs[:3]),
        rho=rho,
        genus_bound=genus_bound,
        genus_bound_attained=rho == genus_bound,
    )
