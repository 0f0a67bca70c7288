"""Built-in gems: small standard crystallizations plus the worked examples.

Each entry stores its graph, the manifold metadata the bound formulas
need, and the expected invariant values the test suite pins down.  The
figures were transcribed by hand, so none of the expectations here are
taken on trust: the acceptance suite recomputes all of them, and the
identity harness cross-validates the censuses, which at these minimal
sizes pin the graphs tightly enough that a mistranscription fails.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .core import ColoredGraph, GemError, ManifoldMeta


class CatalogEntry(NamedTuple):
    """One named gem with its documented metadata and expectations.

    `meta` is None for closed entries (the bound formulas need h >= 1).
    `expected` maps invariant names (census highlights, genus,
    complexity) to exact values; the test suite recomputes every one.
    Its default is a shared empty mapping, read-only like the record.
    `derived_from` documents how the graph arises from another entry,
    e.g. by deleting listed last-color edges.
    """

    name: str
    graph: ColoredGraph
    note: str
    meta: ManifoldMeta | None = None
    expected: Mapping[str, object] = MappingProxyType({})
    connector_vertices: tuple[int, int] | None = None
    derived_from: tuple[str, tuple[tuple[int, int], ...]] | None = None


# colors 0..3 shared by the three 10-vertex entries below
_TEN_VERTEX_BASE = [
    [(1, 10), (2, 4), (3, 5), (6, 7), (8, 9)],
    [(1, 10), (2, 3), (4, 6), (5, 7), (8, 9)],
    [(1, 10), (2, 3), (4, 5), (6, 8), (7, 9)],
    [(1, 9), (2, 3), (4, 5), (6, 7), (8, 10)],
]

_FIG1 = ColoredGraph(
    4, 10, _TEN_VERTEX_BASE + [[(1, 10), (2, 3), (4, 5), (6, 7), (8, 9)]]
)
_FIG2 = ColoredGraph(4, 10, _TEN_VERTEX_BASE + [[(4, 5), (6, 7), (8, 9)]])
_FIG3 = ColoredGraph(4, 10, _TEN_VERTEX_BASE + [[(1, 2)]])

_FIG4 = ColoredGraph(
    4,
    16,
    [
        [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13, 14), (15, 16)],
        [(1, 9), (2, 10), (3, 11), (4, 12), (5, 13), (6, 14), (7, 15), (8, 16)],
        [(1, 4), (2, 3), (5, 8), (6, 7), (9, 12), (10, 11), (13, 16), (14, 15)],
        [(1, 14), (2, 13), (3, 16), (4, 15), (5, 10), (6, 9), (7, 12), (8, 11)],
        [(4, 5), (9, 16), (10, 15), (12, 13)],
    ],
)

# minimal 8-vertex closed 3-manifold gems; both have every bicolored
# cycle count equal to 2 and are bipartite / non-simply-connected.
# s2xs1_8 is the boundary graph of the solid-torus-bundle entry fig3;
# rp3_8 was found by exhaustive search over 8-vertex gems with the
# same census, distinguished by first homology (Z versus Z/2) of the
# induced complex.
_S2XS1 = ColoredGraph(
    3,
    8,
    [
        [(1, 3), (2, 8), (4, 5), (6, 7)],
        [(1, 8), (2, 4), (3, 5), (6, 7)],
        [(1, 8), (2, 3), (4, 6), (5, 7)],
        [(1, 7), (2, 3), (4, 5), (6, 8)],
    ],
)

_RP3 = ColoredGraph(
    3,
    8,
    [
        [(1, 3), (2, 4), (5, 7), (6, 8)],
        [(1, 5), (2, 6), (3, 7), (4, 8)],
        [(1, 8), (2, 7), (3, 6), (4, 5)],
        [(1, 2), (3, 4), (5, 6), (7, 8)],
    ],
)


def _order_two(d: int, last_color_edge: bool) -> ColoredGraph:
    pairs = [[(1, 2)]] * d + [[(1, 2)] if last_color_edge else []]
    return ColoredGraph(d, 2, pairs)


_BUILTIN: dict[str, CatalogEntry] = {}


def _add(entry: CatalogEntry) -> None:
    _BUILTIN[entry.name] = entry


_add(
    CatalogEntry(
        name="s4_order2",
        graph=_order_two(4, True),
        note="Order-2 closed gem of the 4-sphere: two vertices joined by "
        "one edge of each color.",
        expected={"closed": True, "chi": 2, "bipartite": True},
    )
)
_add(
    CatalogEntry(
        name="d4_order2",
        graph=_order_two(4, False),
        note="Order-2 gem of the 4-disk: the 4-sphere gem minus its "
        "last-color edge, leaving two boundary vertices.",
        meta=ManifoldMeta(h=1, chi=1, m=0, boundary_genus=0, double_rank=0),
        expected={"h": 1, "chi": 1, "rho": Fraction(0), "complexity": 0},
        derived_from=("s4_order2", ((1, 2),)),
    )
)
_add(
    CatalogEntry(
        name="s3_order2",
        graph=_order_two(3, True),
        note="Order-2 closed gem of the 3-sphere.",
        expected={"closed": True, "chi": 0, "bipartite": True},
    )
)
_add(
    CatalogEntry(
        name="fig1_s4",
        graph=_FIG1,
        note="10-vertex closed gem of the 4-sphere used as the connector "
        "for sphere-routed connected sums; vertices 1 and 2 are the "
        "designated summing vertices.",
        expected={
            "closed": True,
            "chi": 2,
            "bipartite": True,
            "g_ijk": 2,
            "g_ij4": 3,
        },
        connector_vertices=(1, 2),
    )
)
_add(
    CatalogEntry(
        name="fig2_s3xI",
        graph=_FIG2,
        note="10-vertex crystallization of S^3 x [0,1] (two 3-sphere "
        "boundary components), obtained from the 4-sphere connector by "
        "deleting its last-color edges 1-10 and 2-3.",
        meta=ManifoldMeta(h=2, chi=0, m=0, boundary_genus=0, double_rank=0),
        expected={
            "h": 2,
            "chi": 0,
            "p_bar2": 4,
            "rho": Fraction(0),
            "complexity": 4,
        },
        derived_from=("fig1_s4", ((1, 10), (2, 3))),
    )
)
_add(
    CatalogEntry(
        name="fig3_d3xs1",
        graph=_FIG3,
        note="10-vertex crystallization of D^3 x S^1 (one boundary "
        "component, an 8-vertex gem of S^2 x S^1).",
        meta=ManifoldMeta(h=1, chi=0, m=1, boundary_genus=1, double_rank=1),
        expected={
            "h": 1,
            "chi": 0,
            "p_bar2": 8,
            "boundary_pair_count": 2,
            "rho": Fraction(1),
            "complexity": 4,
        },
    )
)
_add(
    CatalogEntry(
        name="fig4_boundary16",
        graph=_FIG4,
        note="16-vertex crystallization with Euler characteristic 1, "
        "fundamental group Z/2 and one boundary component, which is "
        "non-orientable (its 8-vertex boundary gem is not bipartite); "
        "the unique non-bipartite entry.",
        meta=ManifoldMeta(h=1, chi=1, m=1),
        expected={
            "h": 1,
            "chi": 1,
            "bipartite": False,
            "vertex_counts": (16, 24, 8),
            "rho": Fraction(3),
            "complexity": 7,
        },
    )
)
_add(
    CatalogEntry(
        name="s2xs1_8",
        graph=_S2XS1,
        note="Minimal 8-vertex crystallization of S^2 x S^1: the boundary "
        "graph of the fig3_d3xs1 entry; every bicolored cycle count is 2.",
        expected={"closed": True, "g_ij": 2, "bipartite": True},
    )
)
_add(
    CatalogEntry(
        name="rp3_8",
        graph=_RP3,
        note="Minimal 8-vertex crystallization of real projective 3-space; "
        "every bicolored cycle count is 2, first homology Z/2.",
        expected={"closed": True, "g_ij": 2, "bipartite": True},
    )
)


def catalog_list() -> list[str]:
    """All entry names, alphabetical."""
    return sorted(_BUILTIN)


def catalog_get(name: str) -> CatalogEntry:
    if name in _BUILTIN:
        return _BUILTIN[name]
    raise GemError(f"unknown catalog entry {name!r}; "
                   f"known: {', '.join(catalog_list())}")
