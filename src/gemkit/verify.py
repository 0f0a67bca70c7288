"""One-shot harness checking every census identity and bound on a gem.

`verify_identities` and `verify_bounds` each walk the paper's statements
in a fixed order and append one `Check` per evaluated (left, right)
comparison to a ledger; a statement that does not apply to the input
(closed gem, not a crystallization, metadata not supplied) is appended
as a `Skip` with its reason instead.  Every check computes its two sides
from independent sources (for instance boundary cycle counts from the
extracted boundary graph versus regular-component counts on the parent),
so a passing report is a genuine cross-validation and a mistranscribed
gem reliably fails.

Each family of `verify_identities` is one module-level table, built
when the layer runs, of its statements in ledger order: each row holds
the statement text and the shared census keys (`core._census_plan(4)`)
of the color sets that its sides read.  One loop per family reads
each side from its own census by those keys, so no statement is
formatted and no key is built per gem; only "component q: " is
prefixed per boundary component.  The per-scheme tables follow
`genus._schemes(4)`, the one scheme tuple of dimension 4, which also
orders the rows of the shared scheme table `genus._scheme_table` that
they are read beside.  The table holds twice each genus as an int; the
genus-formula-agreement sides are the shared `Fraction`s of
`genus._half`, so two equal sides are one object.

`verify_bounds` turns each row of `genus._floors`, the one evaluation
of the bounds that `certify_minimal` reads too, into a `Check` or a
`Skip`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import (
    ColoredGraph,
    ManifoldMeta,
    _census_plan,
    _require,
    boundary_graph,
    census,
    face_vector,
    validate,
)
from .constructions import double
from .genus import _floors, _half, _scheme_table, _schemes, rank_upper_bound


class Check(NamedTuple):
    """One evaluated comparison: `left` relates to `right` via `relation`
    (an equality or inequality symbol)."""

    name: str
    statement: str
    left: object
    right: object
    relation: str = "=="
    passed: bool = False
    sharp: bool | None = None


class Skip(NamedTuple):
    name: str
    reason: str


class IdentityReport(NamedTuple):
    checks: tuple[Check, ...]
    skipped: tuple[Skip, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _check(name, statement, left, right, relation="=="):
    if relation == "==":
        ok = left == right
        sharp = None
    elif relation == ">=":
        ok = left >= right
        sharp = left == right
    else:
        raise ValueError(relation)
    # positional, as a keyword call takes twice as long
    return Check(name, statement, left, right, relation, ok, sharp)


# the families a closed gem's ledger skips, in ledger order
_CLOSED_SKIPS = tuple(
    Skip(name=family, reason="closed input")
    for family in (
        "interior-cycle-floor",
        "boundary-census-split",
        "facet-count-split",
        "boundary-cycle-sum",
        "per-boundary-component-sphere-relation",
        "genus-formula-agreement",
        "double-census",
        "vertex-count-identity",
        "vertex-sum-identity",
    )
)

# the families a bounded non-crystallization's ledger skips, in ledger
# order: those stated for bounded crystallizations only
_NOT_CRYSTAL_SKIPS = tuple(
    Skip(name=family, reason="not a crystallization")
    for family in (
        "interior-cycle-floor",
        "boundary-cycle-sum",
        "per-boundary-component-sphere-relation",
        "vertex-count-identity",
        "vertex-sum-identity",
        "closed-triple-relation",
        "genus-formula-agreement",
    )
)


# the tables of the census families, in ledger order (module docstring)
_KEYS = _census_plan(4).keys
_PAIRS = tuple(itertools.combinations(range(4), 2))
_TRIPLES = tuple(itertools.combinations(range(5), 3))


def _key(*colors: int) -> frozenset:
    """The shared census key of a 4-gem's color set."""
    return _KEYS[sum(1 << c for c in colors)]


def _triple_relation_table(mark: str) -> tuple:
    """The closed-graph relation 2 g_ijk == g_ij + g_ik + g_jk - n/2 on
    every color triple of a closed 4-gem with n vertices; `mark` "'"
    states it for the double."""
    prefix = "double: " if mark else ""
    return tuple(
        (
            f"{prefix}2 g{mark}_{i}{j}{k} == g{mark}_{i}{j} + g{mark}_{i}{k} "
            f"+ g{mark}_{j}{k} - n{mark}/2",
            _key(i, j, k), _key(i, j), _key(i, k), _key(j, k),
        )
        for i, j, k in _TRIPLES
    )


_TRIPLE_RELATION = _triple_relation_table("")
# per scheme, the keys of the cycle's pairs (e_i, e_i+1)
_CLOSED_EMBEDDING_REDUCTION = tuple(
    (
        f"scheme {scheme}: chi_eps == cycle sum - 3p, no holes",
        tuple(_key(scheme[i], scheme[(i + 1) % 5]) for i in range(5)),
    )
    for scheme in _schemes(4)
)
_INTERIOR_CYCLE_FLOOR = tuple(
    (f"gdot_{a}{b}4 >= h - 1", _key(a, b, 4)) for a, b in _PAIRS
)
_BOUNDARY_CENSUS_SPLIT = tuple(
    (f"g_{i}{j}4 == gdot_{i}{j}4 + bd_g_{i}{j}", _key(i, j, 4), _key(i, j))
    for i, j in _PAIRS
)
_FACET_COUNT_SPLIT = tuple(
    (f"g_{i}4 == gdot_{i}4 + p_bar", _key(i, 4)) for i in range(4)
)
_PAIR_KEYS = tuple(_key(i, j) for i, j in _PAIRS)
# each statement follows "component q: "
_SPHERE_RELATION = tuple(
    (
        f"bd_g_{i}{j} + bd_g_{i}{k} + bd_g_{j}{k} == 2 + n_q/2",
        _key(i, j), _key(i, k), _key(j, k),
    )
    for i, j, k in itertools.combinations(range(4), 3)
)
# g'_S == 2 g_S without the last color, g'_S == g_S + gdot_S with it
_DOUBLE_CENSUS = tuple(
    (
        f"g'_{s} == g_{s} + gdot_{s}" if 4 in colors else f"g'_{s} == 2 g_{s}",
        _key(*colors),
        4 in colors,
    )
    for colors in (
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (0, 1, 4), (0, 1), (0, 2, 4), (0, 2), (0, 3, 4), (0, 3),
        (1, 2, 4), (1, 2), (1, 3, 4), (1, 3), (2, 3, 4), (2, 3),
        (0, 4), (1, 4), (2, 4), (3, 4),
    )
    for s in ["".join(map(str, colors))]
)
_TRIPLE_KEYS = tuple(_key(*t) for t in _TRIPLES)
_DOUBLE_TRIPLE_RELATION = _triple_relation_table("'")
_GENUS_FORMULA_AGREEMENT = tuple(
    f"scheme {scheme}: embedding == double == census formula"
    for scheme in _schemes(4)
)


def _triple_relations(g_counts, n: int, table: tuple) -> list[Check]:
    """The rows of a closed triple relation `table` on the census
    counts `g_counts` of a closed 4-gem with `n` vertices."""
    half = n // 2
    return [
        _check(
            "closed-triple-relation",
            statement,
            2 * g_counts[ijk],
            g_counts[ij] + g_counts[ik] + g_counts[jk] - half,
        )
        for statement, ijk, ij, ik, jk in table
    ]


def verify_identities(g: ColoredGraph) -> IdentityReport:
    """Evaluate every applicable census identity with exact arithmetic.

    A closed input gets the closed triple relation and the closed
    embedding reduction, and skips every family stated for bounded
    gems.  A bounded input that is not a crystallization skips the
    crystallization-only families.  The identities are metadata-free.
    """
    _require(g, dimension=4)
    counts = census(g)
    g_counts, g_dot = counts.g, counts.g_dot
    tally = g.vertex_tally()
    if g.is_closed():
        checks = _triple_relations(g_counts, g.vertex_count, _TRIPLE_RELATION)
        # with no boundary the embedding formula loses its hole term
        p = tally.p
        for (statement, (k0, k1, k2, k3, k4)), (profile, _, _, _) in zip(
            _CLOSED_EMBEDDING_REDUCTION, _scheme_table(g)
        ):
            checks.append(
                _check(
                    "closed-embedding-reduction",
                    statement,
                    (profile.chi, profile.holes),
                    (
                        g_dot[k0] + g_dot[k1] + g_dot[k2] + g_dot[k3]
                        + g_dot[k4] - 3 * p,
                        0,
                    ),
                )
            )
        return IdentityReport(checks=tuple(checks), skipped=_CLOSED_SKIPS)

    report = validate(g)
    h = report.h
    crystal = report.is_crystallization
    skipped = () if crystal else _NOT_CRYSTAL_SKIPS
    bd_g = counts.boundary_g
    p_bar = tally.p_bar
    # the harness's contract is a crystallization input, so for bounded
    # gems the structural counts are themselves a check: a
    # mistranscribed graph fails here even though the universal census
    # identities below still hold on it
    checks = [
        _check(
            "crystallization-structure",
            "labeled vertex count f0 == 4h + 1 and residue counts "
            "match a crystallization",
            (report.f0, crystal),
            (4 * h + 1, True),
        )
    ]
    if crystal:
        checks += [
            _check("interior-cycle-floor", statement, g_dot[ab4], h - 1, ">=")
            for statement, ab4 in _INTERIOR_CYCLE_FLOOR
        ]
    checks += [
        _check(
            "boundary-census-split",
            statement,
            g_counts[ij4],
            g_dot[ij4] + bd_g[ij],
        )
        for statement, ij4, ij in _BOUNDARY_CENSUS_SPLIT
    ]
    checks += [
        _check("facet-count-split", statement, g_counts[i4], g_dot[i4] + p_bar)
        for statement, i4 in _FACET_COUNT_SPLIT
    ]
    if crystal:
        checks.append(
            _check(
                "boundary-cycle-sum",
                "sum bd_g_ij == 4h + 2 p_bar",
                sum([bd_g[ij] for ij in _PAIR_KEYS]),
                4 * h + tally.boundary,
            )
        )
        bd = boundary_graph(g)
        for q, per_q in enumerate(counts.component_boundary_g):
            right = 2 + len(bd.components[q]) // 2
            checks += [
                _check(
                    "per-boundary-component-sphere-relation",
                    f"component {q}: {statement}",
                    per_q[ij] + per_q[ik] + per_q[jk],
                    right,
                )
                for statement, ij, ik, jk in _SPHERE_RELATION
            ]

    # doubled-graph census relations hold for any gem with boundary
    doubled = double(g)
    doubled_g = census(doubled).g
    for statement, key, with_last in _DOUBLE_CENSUS:
        g_s = g_counts[key]
        right = g_s + g_dot[key] if with_last else 2 * g_s
        checks.append(_check("double-census", statement, doubled_g[key], right))
    if crystal:
        chi = face_vector(g).euler_characteristic
        checks.append(
            _check(
                "vertex-count-identity",
                "2p == 6 chi + sum g'_ijk - 12h - 6",
                tally.total,
                6 * chi
                + sum([doubled_g[ijk] for ijk in _TRIPLE_KEYS])
                - 12 * h
                - 6,
            )
        )
        checks.append(
            _check(
                "vertex-sum-identity",
                "2p + 2 p_bar == 6 chi + 2 sum g_ijk - 16h - 6",
                tally.total + tally.boundary,
                6 * chi
                + 2 * sum([g_counts[ijk] for ijk in _TRIPLE_KEYS])
                - 16 * h
                - 6,
            )
        )
        # closed-graph triple relation, applied to the double
        checks += _triple_relations(
            doubled_g, doubled.vertex_count, _DOUBLE_TRIPLE_RELATION
        )
        # the embedding and census formulas read census(g), the double
        # formula census(double(g)); each side is the shared `_half` of
        # its formula's value, so equal sides are one object
        for statement, (profile, _, via_double, via_census) in zip(
            _GENUS_FORMULA_AGREEMENT, _scheme_table(g)
        ):
            checks.append(
                _check(
                    "genus-formula-agreement",
                    statement,
                    (profile.rho, profile.rho),
                    (_half(via_double), _half(via_census)),
                )
            )
    return IdentityReport(checks=tuple(checks), skipped=skipped)


def verify_bounds(
    g: ColoredGraph,
    meta: ManifoldMeta,
    k_boundary: int | None = None,
) -> IdentityReport:
    """Evaluate every bound; equality is flagged as sharp on this gem.

    `g` must be a bounded 4-crystallization whose h and chi `meta`
    states."""
    checks: list[Check] = []
    skipped: list[Skip] = []
    rows = _floors(g, meta, k_boundary)
    for family, statement, got, bound, skip_name, reason in rows:
        if bound is None:
            skipped.append(Skip(name=skip_name, reason=reason))
        else:
            checks.append(_check(family, statement, got, bound, ">="))
    checks.append(
        _check(
            "rank-cap",
            "m <= combinatorial rank bound",
            rank_upper_bound(g),
            meta.m,
            ">=",
        )
    )
    return IdentityReport(checks=tuple(checks), skipped=tuple(skipped))
