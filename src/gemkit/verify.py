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
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .core import (
    ColoredGraph,
    GemError,
    boundary_graph,
    census,
    face_vector,
    validate,
)
from .constructions import double
from .genus import (
    ManifoldMeta,
    complexity_lower_bounds,
    enumerate_schemes,
    gem_complexity,
    genus_lower_bounds,
    rank_upper_bound,
    regular_genus,
    rho_epsilon,
    rho_epsilon_census,
    rho_epsilon_via_double,
    vertex_lower_bounds,
)


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
    return Check(
        name=name,
        statement=statement,
        left=left,
        right=right,
        relation=relation,
        passed=ok,
        sharp=sharp,
    )


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
    if g.dimension != 4:
        raise GemError("the identity harness is specific to dimension 4")
    counts = census(g)
    tally = g.vertex_tally()
    if g.is_closed():
        checks = _triple_relations(counts, g.vertex_count)
        # with no boundary the embedding formula loses its hole term
        for scheme in enumerate_schemes(4):
            profile = rho_epsilon(g, scheme)
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
                    per_q[frozenset((i, j))]
                    + per_q[frozenset((i, k))]
                    + per_q[frozenset((j, k))],
                    2 + size // 2,
                )
                for i, j, k in itertools.combinations(range(4), 3)
            ]

    # doubled-graph census relations hold for any gem with boundary
    doubled = double(g)
    dcounts = census(doubled)
    checks += [
        _check(
            "double-census",
            f"g'_{i}{j}{k} == 2 g_{i}{j}{k}",
            dcounts.g_of(i, j, k),
            2 * counts.g_of(i, j, k),
        )
        for i, j, k in itertools.combinations(range(4), 3)
    ]
    for i, j in pairs:
        checks.append(
            _check(
                "double-census",
                f"g'_{i}{j}4 == g_{i}{j}4 + gdot_{i}{j}4",
                dcounts.g_of(i, j, 4),
                counts.g_of(i, j, 4) + counts.g_dot_of(i, j, 4),
            )
        )
        checks.append(
            _check(
                "double-census",
                f"g'_{i}{j} == 2 g_{i}{j}",
                dcounts.g_of(i, j),
                2 * counts.g_of(i, j),
            )
        )
    checks += [
        _check(
            "double-census",
            f"g'_{i}4 == g_{i}4 + gdot_{i}4",
            dcounts.g_of(i, 4),
            counts.g_of(i, 4) + counts.g_dot_of(i, 4),
        )
        for i in range(4)
    ]
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
        for scheme in enumerate_schemes(4):
            embedding = rho_epsilon(g, scheme).rho
            via_double = rho_epsilon_via_double(g, scheme)
            via_census = rho_epsilon_census(g, scheme)
            checks.append(
                _check(
                    "genus-formula-agreement",
                    f"scheme {scheme}: embedding == double == census formula",
                    (embedding, embedding),
                    (via_double, via_census),
                )
            )
    return IdentityReport(checks=tuple(checks), skipped=skipped)


def verify_bounds(
    g: ColoredGraph,
    meta: ManifoldMeta,
    k_boundary: int | None = None,
) -> IdentityReport:
    """Evaluate every bound; equality is flagged as sharp on this gem."""
    if g.dimension != 4:
        raise GemError("the bound harness is specific to dimension 4")
    if meta.h < 1:
        raise GemError("bounds assume at least one boundary component")
    report = validate(g)
    if not report.is_crystallization:
        raise GemError("bounds are stated for crystallizations")
    tally = g.vertex_tally()
    checks: list[Check] = []
    skipped: list[Skip] = []

    vb = vertex_lower_bounds(meta)
    attained = (
        tally.total,
        tally.total + tally.boundary,
        tally.total - tally.boundary,
    )
    names = ("2p", "2p + 2p_bar", "2p - 2p_bar")
    for label, got, bound in zip(names, attained, vb):
        checks.append(
            _check("vertex-floor", f"{label} >= bound", got, bound, ">=")
        )

    kb1, kb2 = complexity_lower_bounds(meta, k_boundary)
    k = gem_complexity(g)
    gb1, gb2, gb3 = genus_lower_bounds(meta)
    rho = regular_genus(g).rho
    # (family, statement, attained, bound, skipped as, reason); a bound
    # of None is one whose metadata was not supplied
    floors = (
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
    for family, statement, got, bound, skip_name, reason in floors:
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
