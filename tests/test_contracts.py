"""Input contracts: every entry point that states one names the first
contract its input breaks, in the wording of the gate `core._require`,
of the metadata gate `core._require_meta` or, for the summing vertices
of a connected sum, of its own check.  A color or vertex argument, a
constructor's dimension and vertex count and each metadata value is an
exact int (in range), or a `GemError`."""

import pytest
from hypothesis import given, settings, strategies as st

from gemkit import (
    ColoredGraph,
    Dipole,
    GemError,
    ManifoldMeta,
    boundary_genus_cap,
    boundary_graph,
    catalog_get,
    census,
    certify_minimal,
    complexity_lower_bounds,
    connected_sum,
    crystallize_double,
    double,
    export_gem,
    face_vector,
    find_one_dipoles,
    gem_complexity,
    genus_lower_bounds,
    interval_product,
    rank_upper_bound,
    regular_genus,
    remove_one_dipole,
    residue_components,
    rho_epsilon,
    rho_epsilon_census,
    rho_epsilon_via_double,
    save_gem,
    sphere_connector_sum,
    validate,
    verify_bounds,
    verify_identities,
    vertex_lower_bounds,
    weak_semi_simple,
)
from gemkit.cli import main
from test_properties import random_gems

CLOSED = "input is closed; needs a gem with nonempty boundary"
BOUNDED = "input has boundary; needs a closed gem"
NOT_CRYSTAL = "input is not a crystallization"
INTERNAL = "summing vertices must be internal"


def _dimension(d, needed):
    return f"input has dimension {d}; needs dimension {needed}"


# the closed 4-sphere of order 2, two disjoint 4-disks of order 2 (a
# bounded 4-gem that is no crystallization), the 3-disk of order 2 and
# the closed 1-sphere of order 2
INPUTS = {
    "closed-4": catalog_get("s4_order2").graph,
    "bounded-4-not-crystal": ColoredGraph(4, 4, [[(1, 2), (3, 4)]] * 4 + [[]]),
    "disk-3": ColoredGraph(3, 2, [[(1, 2)]] * 3 + [[]]),
    "one-gem": ColoredGraph(1, 2, [[(1, 2)]] * 2),
}

# metadata that the gate rejects before it is read
_META = ManifoldMeta(h=1, chi=1, m=0)


def _identity_scheme(g):
    return tuple(g.colors)


# entry point -> expected error on each input of INPUTS, None for a value
MATRIX = {
    "double": (double, (CLOSED, None, None, CLOSED)),
    "crystallize_double": (
        crystallize_double, (CLOSED, NOT_CRYSTAL, None, CLOSED)
    ),
    "connected_sum": (
        lambda g: connected_sum(g, 1, g, 1), (None, INTERNAL, INTERNAL, None)
    ),
    "sphere_connector_sum": (
        lambda g: sphere_connector_sum(g, 1, g, 1),
        (None, INTERNAL, _dimension(3, 4), _dimension(1, 4)),
    ),
    "interval_product": (
        interval_product,
        (_dimension(4, 3), _dimension(4, 3), BOUNDED, _dimension(1, 3)),
    ),
    "rho_epsilon": (
        lambda g: rho_epsilon(g, _identity_scheme(g)),
        (None, None, None, "schemes need dimension >= 2"),
    ),
    "regular_genus": (
        regular_genus, (None, None, None, "schemes need dimension >= 2")
    ),
    "rho_epsilon_via_double": (
        lambda g: rho_epsilon_via_double(g, _identity_scheme(g)),
        (CLOSED, NOT_CRYSTAL, _dimension(3, 4), _dimension(1, 4)),
    ),
    "rho_epsilon_census": (
        lambda g: rho_epsilon_census(g, _identity_scheme(g)),
        (CLOSED, NOT_CRYSTAL, _dimension(3, 4), _dimension(1, 4)),
    ),
    "gem_complexity": (gem_complexity, (None, NOT_CRYSTAL, None, None)),
    "rank_upper_bound": (
        rank_upper_bound,
        (None, NOT_CRYSTAL, None, "rank bound needs dimension at least 2"),
    ),
    "boundary_genus_cap": (boundary_genus_cap, (CLOSED, None, None, CLOSED)),
    "weak_semi_simple": (
        lambda g: weak_semi_simple(g, _META),
        (CLOSED, NOT_CRYSTAL, _dimension(3, 4), _dimension(1, 4)),
    ),
    "certify_minimal": (
        lambda g: certify_minimal(g, _META),
        (CLOSED, NOT_CRYSTAL, _dimension(3, 4), _dimension(1, 4)),
    ),
    "verify_identities": (
        verify_identities, (None, None, _dimension(3, 4), _dimension(1, 4))
    ),
    "verify_bounds": (
        lambda g: verify_bounds(g, _META),
        (CLOSED, NOT_CRYSTAL, _dimension(3, 4), _dimension(1, 4)),
    ),
}

# CLI subcommand -> expected stderr message on each input, None for exit 0
CLI_MATRIX = {
    ("boundary",): (CLOSED, None, None, CLOSED),
    ("bounds", "--rank", "0"): (
        CLOSED, NOT_CRYSTAL, _dimension(3, 4), CLOSED
    ),
}


# call on fig3_d3xs1 (10 vertices) and its double -> expected error;
# True and 1.0 equal a color or vertex in range and are refused too
BAD_ARGUMENTS = {
    "mate(-1, 0)": (
        lambda g, d: g.mate(-1, 0), "vertex -1 out of range 1..10"
    ),
    "mate(0, 0)": (lambda g, d: g.mate(0, 0), "vertex 0 out of range 1..10"),
    "mate(11, 0)": (
        lambda g, d: g.mate(11, 0), "vertex 11 out of range 1..10"
    ),
    "mate(1.0, 0)": (
        lambda g, d: g.mate(1.0, 0), "vertex 1.0 out of range 1..10"
    ),
    "mate(1, 5)": (lambda g, d: g.mate(1, 5), "color 5 out of range 0..4"),
    "mate(1, True)": (
        lambda g, d: g.mate(1, True), "color True out of range 0..4"
    ),
    "degree(0)": (lambda g, d: g.degree(0), "vertex 0 out of range 1..10"),
    "degree(-1)": (lambda g, d: g.degree(-1), "vertex -1 out of range 1..10"),
    "edges(-1)": (lambda g, d: g.edges(-1), "color -1 out of range 0..4"),
    "edges(5)": (lambda g, d: g.edges(5), "color 5 out of range 0..4"),
    "residue_components(g, [1.0, 2])": (
        lambda g, d: residue_components(g, [1.0, 2]),
        "colors [2, 1.0] out of range 0..4",
    ),
    "residue_components(g, [True, 2])": (
        lambda g, d: residue_components(g, [True, 2]),
        "colors [2, True] out of range 0..4",
    ),
    "find_one_dipoles(d, 1.0)": (
        lambda g, d: find_one_dipoles(d, 1.0), "color 1.0 out of range 0..4"
    ),
    "remove_one_dipole(d, Dipole(1, 2, 1.0))": (
        lambda g, d: remove_one_dipole(d, Dipole(1, 2, 1.0)),
        "stale dipole Dipole(u=1, v=2, color=1.0): certificate fails",
    ),
    "connected_sum(g, 1.0, g, 1)": (
        lambda g, d: connected_sum(g, 1.0, g, 1), "summing vertex out of range"
    ),
    "connected_sum(g, 1, g, True)": (
        lambda g, d: connected_sum(g, 1, g, True),
        "summing vertex out of range",
    ),
    "residue_components(g, [[1]])": (
        lambda g, d: residue_components(g, [[1]]),
        "colors [[1]] out of range 0..4",
    ),
    "ColoredGraph(4, 2.0, ...)": (
        lambda g, d: ColoredGraph(4, 2.0, [[(1, 2)]] * 5),
        "vertex count must be an int, got 2.0",
    ),
    "ColoredGraph(4, 0, ...)": (
        lambda g, d: ColoredGraph(4, 0, [[]] * 5),
        "vertex count must be positive",
    ),
    "ColoredGraph(4.0, 2, ...)": (
        lambda g, d: ColoredGraph(4.0, 2, [[(1, 2)]] * 5),
        "dimension must be a positive integer",
    ),
    "ColoredGraph(True, 2, ...)": (
        lambda g, d: ColoredGraph(True, 2, [[(1, 2)]] * 2),
        "dimension must be a positive integer",
    ),
    "ColoredGraph(1, 2, [[(1.0, 2)]] * 2)": (
        lambda g, d: ColoredGraph(1, 2, [[(1.0, 2)]] * 2),
        "color 0: expected pairs of vertex ints",
    ),
    "ColoredGraph(1, 2, [[(1, 2)], [(1,)]])": (
        lambda g, d: ColoredGraph(1, 2, [[(1, 2)], [(1,)]]),
        "color 1: expected pairs of vertex ints",
    ),
    "ColoredGraph(1, 2, [[(1, 2)], 5])": (
        lambda g, d: ColoredGraph(1, 2, [[(1, 2)], 5]),
        "color 1: expected pairs of vertex ints",
    ),
    "ColoredGraph(1, 2, 5)": (
        lambda g, d: ColoredGraph(1, 2, 5),
        "expected one list of pairs per color",
    ),
    "ColoredGraph(1, 2, [[(True, 2)]] * 2)": (
        lambda g, d: ColoredGraph(1, 2, [[(True, 2)]] * 2),
        "color 0: expected pairs of vertex ints",
    ),
    "ColoredGraph(1, 2, [[(1, 2)], [(2, False)]])": (
        lambda g, d: ColoredGraph(1, 2, [[(1, 2)], [(2, False)]]),
        "color 1: expected pairs of vertex ints",
    ),
    "remove_one_dipole(bounded 1-gem, Dipole(1, 2, 0))": (
        lambda g, d: remove_one_dipole(
            ColoredGraph(1, 2, [[(1, 2)], []]), Dipole(1, 2, 0)
        ),
        "cancelling Dipole(u=1, v=2, color=0) would leave no vertex",
    ),
    "fig4 boundary: component_subgraph(-1)": (
        lambda g, d: _fig4_boundary().component_subgraph(-1),
        "component -1 out of range 0..0",
    ),
    "fig4 boundary: component_subgraph(5)": (
        lambda g, d: _fig4_boundary().component_subgraph(5),
        "component 5 out of range 0..0",
    ),
    "fig4 boundary: component_subgraph(False)": (
        lambda g, d: _fig4_boundary().component_subgraph(False),
        "component False out of range 0..0",
    ),
    "fig4 boundary: component_subgraph(0.0)": (
        lambda g, d: _fig4_boundary().component_subgraph(0.0),
        "component 0.0 out of range 0..0",
    ),
    "closed boundary: component_subgraph(0)": (
        lambda g, d: boundary_graph(d).component_subgraph(0),
        "component 0 out of range 0..-1",
    ),
    "fig4 census: g_of(0, 9)": (
        lambda g, d: _fig4_census().g_of(0, 9),
        "colors [0, 9]: need distinct colors in 0..4",
    ),
    "fig4 census: g_of()": (
        lambda g, d: _fig4_census().g_of(),
        "colors []: need distinct colors in 0..4",
    ),
    "fig4 census: g_of(1, 1)": (
        lambda g, d: _fig4_census().g_of(1, 1),
        "colors [1, 1]: need distinct colors in 0..4",
    ),
    "fig4 census: g_of([1], 2)": (
        lambda g, d: _fig4_census().g_of([1], 2),
        "colors [[1], 2]: need distinct colors in 0..4",
    ),
    "fig4 census: g_of(True, 2)": (
        lambda g, d: _fig4_census().g_of(True, 2),
        "colors [True, 2]: need distinct colors in 0..4",
    ),
    "fig4 census: g_of(1.0, 2)": (
        lambda g, d: _fig4_census().g_of(1.0, 2),
        "colors [1.0, 2]: need distinct colors in 0..4",
    ),
    "fig4 census: g_dot_of(False, 4)": (
        lambda g, d: _fig4_census().g_dot_of(False, 4),
        "colors [False, 4]: need distinct colors in 0..4",
    ),
    "fig4 census: g_dot_of(0, 4.0)": (
        lambda g, d: _fig4_census().g_dot_of(0, 4.0),
        "colors [0, 4.0]: need distinct colors in 0..4",
    ),
    "fig4 census: g_dot_of(0, 9)": (
        lambda g, d: _fig4_census().g_dot_of(0, 9),
        "colors [0, 9]: need distinct colors in 0..4",
    ),
    "fig4 census: g_dot_of(2, 4, 2)": (
        lambda g, d: _fig4_census().g_dot_of(2, 4, 2),
        "colors [2, 4, 2]: need distinct colors in 0..4",
    ),
    "fig4 census: boundary_g_of(0, 4)": (
        lambda g, d: _fig4_census().boundary_g_of(0, 4),
        "colors [0, 4]: need distinct colors in 0..3",
    ),
    "fig4 census: boundary_g_of(1, 1)": (
        lambda g, d: _fig4_census().boundary_g_of(1, 1),
        "colors [1, 1]: need distinct colors in 0..3",
    ),
    "fig4 census: boundary_g_of(True, 0)": (
        lambda g, d: _fig4_census().boundary_g_of(True, 0),
        "colors [True, 0]: need distinct colors in 0..3",
    ),
    "fig4 census: boundary_g_of(0, 1.0)": (
        lambda g, d: _fig4_census().boundary_g_of(0, 1.0),
        "colors [0, 1.0]: need distinct colors in 0..3",
    ),
    "fig4 census: boundary_g_of(0, 9)": (
        lambda g, d: _fig4_census().boundary_g_of(0, 9),
        "colors [0, 9]: need distinct colors in 0..3",
    ),
    "closed census: boundary_g_of(0, 4)": (
        lambda g, d: census(d).boundary_g_of(0, 4),
        "colors [0, 4]: need distinct colors in 0..3",
    ),
    "closed census: boundary_g_of(2, 2)": (
        lambda g, d: census(d).boundary_g_of(2, 2),
        "colors [2, 2]: need distinct colors in 0..3",
    ),
    "closed census: boundary_g_of(True, 0)": (
        lambda g, d: census(d).boundary_g_of(True, 0),
        "colors [True, 0]: need distinct colors in 0..3",
    ),
    "closed census: boundary_g_of([0], 1)": (
        lambda g, d: census(d).boundary_g_of([0], 1),
        "colors [[0], 1]: need distinct colors in 0..3",
    ),
}


def _fig4_boundary():
    return boundary_graph(catalog_get("fig4_boundary16").graph)


def _fig4_census():
    return census(catalog_get("fig4_boundary16").graph)

# the metadata of fig3_d3xs1, which has h = 1 and chi = 0
_FIG3_META = ManifoldMeta(h=1, chi=0, m=1)

# metadata value that is no int -> (field, value, message of the
# metadata gate); True and 1.0 equal an int in range and are refused too
BAD_META = {
    "m=1.5": ("m", 1.5, "m must be an int, got 1.5"),
    "m=True": ("m", True, "m must be an int, got True"),
    "m='1'": ("m", "1", "m must be an int, got '1'"),
    "h=1.0": ("h", 1.0, "h must be an int, got 1.0"),
    "chi=0.0": ("chi", 0.0, "chi must be an int, got 0.0"),
    "boundary_genus=1.0": (
        "boundary_genus", 1.0, "boundary_genus must be an int, got 1.0"
    ),
    "double_rank=1.0": (
        "double_rank", 1.0, "double_rank must be an int, got 1.0"
    ),
    "k_boundary=0.0": (
        "k_boundary", 0.0, "k_boundary must be an int, got 0.0"
    ),
}


def _meta(field, value):
    """`_FIG3_META` with `field` set to `value`, and the k_boundary."""
    if field == "k_boundary":
        return _FIG3_META, value
    return _FIG3_META._replace(**{field: value}), None


_RECORD_FIELDS = ("m", "h", "chi", "boundary_genus", "double_rank")

# entry point that reads metadata -> (call on fig3 with one field set,
# the fields it takes)
META_CALLS = {
    "for_graph": (
        lambda g, field, value: ManifoldMeta.for_graph(
            g, **{"m": 1, field: value}
        ),
        ("m", "boundary_genus", "double_rank"),
    ),
    "verify_bounds": (
        lambda g, *bad: verify_bounds(g, *_meta(*bad)),
        (*_RECORD_FIELDS, "k_boundary"),
    ),
    "certify_minimal": (
        lambda g, *bad: certify_minimal(g, _meta(*bad)[0]), _RECORD_FIELDS
    ),
    "weak_semi_simple": (
        lambda g, *bad: weak_semi_simple(g, _meta(*bad)[0]), _RECORD_FIELDS
    ),
    "complexity_lower_bounds": (
        lambda g, *bad: complexity_lower_bounds(*_meta(*bad)),
        (*_RECORD_FIELDS, "k_boundary"),
    ),
    "vertex_lower_bounds": (
        lambda g, *bad: vertex_lower_bounds(_meta(*bad)[0]), _RECORD_FIELDS
    ),
    "genus_lower_bounds": (
        lambda g, *bad: genus_lower_bounds(_meta(*bad)[0]), _RECORD_FIELDS
    ),
}


@pytest.mark.parametrize("entry", MATRIX)
@pytest.mark.parametrize("name", INPUTS)
def test_contract_matrix(entry, name):
    call, row = MATRIX[entry]
    g = INPUTS[name]
    expected = row[list(INPUTS).index(name)]
    if expected is None:
        call(g)
    else:
        with pytest.raises(GemError) as raised:
            call(g)
        assert str(raised.value) == expected


@pytest.mark.parametrize("call", BAD_ARGUMENTS)
def test_bad_argument_raises_gem_error(fig3, call):
    run, expected = BAD_ARGUMENTS[call]
    with pytest.raises(GemError) as raised:
        run(fig3, double(fig3))
    assert str(raised.value) == expected


@pytest.mark.parametrize("command", CLI_MATRIX, ids=" ".join)
@pytest.mark.parametrize("name", INPUTS)
def test_cli_contract_matrix(capsys, tmp_path, command, name):
    expected = CLI_MATRIX[command][list(INPUTS).index(name)]
    path = tmp_path / f"{name}.gem"
    save_gem(INPUTS[name], path)
    code = main([command[0], str(path), *command[1:]])
    out, err = capsys.readouterr()
    if expected is None:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (2, "", f"error: {expected}\n")


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry, (_, takes) in META_CALLS.items()
        for bad, (field, _, _) in BAD_META.items()
        if field in takes
    ],
)
def test_non_int_metadata_is_rejected(fig3, entry, bad):
    call, _ = META_CALLS[entry]
    field, value, expected = BAD_META[bad]
    with pytest.raises(GemError) as raised:
        call(fig3, field, value)
    assert str(raised.value) == expected


def test_for_graph_rejects_a_closed_gem():
    with pytest.raises(GemError) as raised:
        ManifoldMeta.for_graph(INPUTS["closed-4"], m=0)
    expected = "this bound assumes at least one boundary component"
    assert str(raised.value) == expected


def test_metadata_contradicting_the_gem_is_rejected(fig3):
    # fig3 has h = 1 and chi = 0
    meta = ManifoldMeta(h=3, chi=-10, m=1)
    message = (
        r"^metadata \(h, chi\) = \(3, -10\) contradicts the gem's "
        r"\(h, chi\) = \(1, 0\)$"
    )
    for call in (verify_bounds, certify_minimal, weak_semi_simple):
        with pytest.raises(GemError, match=message):
            call(fig3, meta)


def _every_entry_point(g):
    """Call each public graph-taking entry point once on `g`."""
    def meta():
        return ManifoldMeta.for_graph(g, m=1)

    scheme = _identity_scheme(g)
    return (
        lambda: census(g),
        lambda: validate(g),
        lambda: face_vector(g),
        lambda: boundary_graph(g),
        lambda: boundary_graph(g).component_subgraph(0),
        lambda: census(g).boundary_g_of(0, 1),
        lambda: residue_components(g, g.colors),
        lambda: export_gem(g),
        lambda: [find_one_dipoles(g, c) for c in g.colors],
        lambda: [
            remove_one_dipole(g, dipole)
            for c in g.colors
            for dipole in find_one_dipoles(g, c)[:1]
        ],
        lambda: remove_one_dipole(g, Dipole(1, 2, g.dimension + 1)),
        *(lambda call=call: call(g) for call, _ in MATRIX.values()),
        lambda: regular_genus(g),
        lambda: rho_epsilon(g, scheme),
        meta,
        lambda: weak_semi_simple(g, meta()),
        lambda: certify_minimal(g, meta()),
        lambda: verify_bounds(g, meta()),
    )


@given(st.integers(min_value=1, max_value=5).flatmap(random_gems))
@settings(max_examples=300, deadline=None)
def test_every_entry_point_returns_or_raises_gem_error(g):
    """Any well-formed gem of dimension 1..5, closed or not, manifold or
    not: each entry point returns a value or raises a `GemError`."""
    for call in _every_entry_point(g):
        try:
            call()
        except GemError:
            pass
