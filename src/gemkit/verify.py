"""One-shot harness checking every census identity and bound on a gem.

`verify_identities` and `verify_bounds` each walk the paper's statements
in a fixed order and append one `Check` per evaluated (left, right)
comparison to a ledger; a statement that does not apply to the input
(closed gem, not a crystallization, metadata not supplied) is appended
as a `Skip` with its reason instead.  Every check computes its two sides
from independent sources (for instance boundary cycle counts from the
extracted boundary graph versus regular-component counts on the parent),
so a passing report is a genuine cross-validation and a mistranscribed
gem reliably fails.  `verify_bounds` turns each row of `genus._floors`,
the one evaluation of the bounds that `certify_minimal` reads too, into
a `Check` or a `Skip`.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import (
    ColoredGraph,
    ManifoldMeta,
    _require,
    boundary_graph,
    census,
    face_vector,
    validate,
)
from .constructions import double
from .genus import _floors, _scheme_table, rank_upper_bound


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


# the color sets of the double's census relations, in ledger order:
# g'_S == 2 g_S without the last color, g'_S == g_S + gdot_S with it
_DOUBLE_CENSUS_SETS = (
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    (0, 1, 4), (0, 1), (0, 2, 4), (0, 2), (0, 3, 4), (0, 3),
    (1, 2, 4), (1, 2), (1, 3, 4), (1, 3), (2, 3, 4), (2, 3),
    (0, 4), (1, 4), (2, 4), (3, 4),
)


def _triple_relations(counts, n: int, mark: str = "") -> list[Check]:
    """The closed-graph relation 2 g_ijk == g_ij + g_ik + g_jk - n/2 on
    every color triple of a closed 4-gem with `n` vertices; `mark` "'"
    states it for the double."""
    prefix = "double: " if mark else ""
    return [
        _check(
            "closed-triple-relation",
            f"{prefix}2 g{mark}_{i}{j}{k} == g{mark}_{i}{j} + g{mark}_{i}{k} "
            f"+ g{mark}_{j}{k} - n{mark}/2",
            2 * counts.g_of(i, j, k),
            counts.g_of(i, j) + counts.g_of(i, k) + counts.g_of(j, k) - n // 2,
        )
        for i, j, k in itertools.combinations(range(5), 3)
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
    tally = g.vertex_tally()
    if g.is_closed():
        checks = _triple_relations(counts, g.vertex_count)
        # with no boundary the embedding formula loses its hole term
        for profile, _, _ in _scheme_table(g):
            scheme = profile.scheme
            reduced_chi = (
                sum(
                    counts.g_dot_of(scheme[i], scheme[(i + 1) % 5])
                    for i in range(5)
                )
                - 3 * tally.p
            )
            checks.append(
                _check(
                    "closed-embedding-reduction",
                    f"scheme {scheme}: chi_eps == cycle sum - 3p, no holes",
                    (profile.chi, profile.holes),
                    (reduced_chi, 0),
                )
            )
        return IdentityReport(checks=tuple(checks), skipped=_CLOSED_SKIPS)

    report = validate(g)
    h = report.h
    crystal = report.is_crystallization
    skipped = () if crystal else _NOT_CRYSTAL_SKIPS
    pairs = list(itertools.combinations(range(4), 2))
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
            _check(
                "interior-cycle-floor",
                f"gdot_{a}{b}4 >= h - 1",
                counts.g_dot_of(a, b, 4),
                h - 1,
                ">=",
            )
            for a, b in pairs
        ]
    checks += [
        _check(
            "boundary-census-split",
            f"g_{i}{j}4 == gdot_{i}{j}4 + bd_g_{i}{j}",
            counts.g_of(i, j, 4),
            counts.g_dot_of(i, j, 4) + counts.boundary_g_of(i, j),
        )
        for i, j in pairs
    ]
    checks += [
        _check(
            "facet-count-split",
            f"g_{i}4 == gdot_{i}4 + p_bar",
            counts.g_of(i, 4),
            counts.g_dot_of(i, 4) + tally.p_bar,
        )
        for i in range(4)
    ]
    if crystal:
        checks.append(
            _check(
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
                _check(
                    "per-boundary-component-sphere-relation",
                    f"component {q}: bd_g_{i}{j} + bd_g_{i}{k} + "
                    f"bd_g_{j}{k} == 2 + n_q/2",
                    sum(per_q[frozenset(p)] for p in ((i, j), (i, k), (j, k))),
                    2 + size // 2,
                )
                for i, j, k in itertools.combinations(range(4), 3)
            ]

    # doubled-graph census relations hold for any gem with boundary
    doubled = double(g)
    dcounts = census(doubled)
    for colors in _DOUBLE_CENSUS_SETS:
        s = "".join(map(str, colors))
        g_s = counts.g_of(*colors)
        if 4 in colors:
            rhs, right = f"g_{s} + gdot_{s}", g_s + counts.g_dot_of(*colors)
        else:
            rhs, right = f"2 g_{s}", 2 * g_s
        left = dcounts.g_of(*colors)
        checks.append(_check("double-census", f"g'_{s} == {rhs}", left, right))
    if crystal:
        chi = face_vector(g).euler_characteristic
        all_triples = list(itertools.combinations(range(5), 3))
        checks.append(
            _check(
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
            _check(
                "vertex-sum-identity",
                "2p + 2 p_bar == 6 chi + 2 sum g_ijk - 16h - 6",
                tally.total + tally.boundary,
                6 * chi
                + 2 * sum(counts.g_of(*t) for t in all_triples)
                - 16 * h
                - 6,
            )
        )
        # closed-graph triple relation, applied to the double
        checks += _triple_relations(dcounts, doubled.vertex_count, "'")
        # the embedding and census formulas read census(g), the double
        # formula census(double(g))
        for profile, via_double, via_census in _scheme_table(g):
            checks.append(
                _check(
                    "genus-formula-agreement",
                    f"scheme {profile.scheme}: embedding == double == "
                    "census formula",
                    (profile.rho, profile.rho),
                    (via_double, via_census),
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
