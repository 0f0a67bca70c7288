"""Record types: `typing.NamedTuple` classes with pinned field order,
immutable, and imported without `dataclasses` or `inspect`; and the
layers that an import or a CLI call runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gemkit

# Positional construction and iteration follow this order, so it is
# part of the public API.
FIELDS = {
    "VertexTally": ("total", "boundary", "internal"),
    "ResidueComponent": ("vertices", "regular"),
    "BoundaryGraph": ("graph", "parent_vertices", "components"),
    "ResidueCensus": (
        "dimension", "g", "g_dot", "boundary_g", "component_boundary_g",
        "tally",
    ),
    "FaceVector": ("f", "euler_characteristic"),
    "ValidationReport": (
        "connected", "bipartite", "contracted", "contracted_per_color",
        "closed", "h", "is_crystallization", "f0",
    ),
    "Dipole": ("u", "v", "color"),
    "SchemeProfile": ("scheme", "chi", "holes", "rho"),
    "GenusProfile": ("entries", "rho", "argmin", "diagnostics"),
    "ManifoldMeta": ("h", "chi", "m", "boundary_genus", "double_rank"),
    "WeakSemiSimpleReport": ("type_one", "type_two"),
    "MinimalityReport": (
        "complexity", "complexity_bound", "complexity_certified",
        "vertex_counts", "vertex_bounds", "vertex_bounds_attained", "rho",
        "genus_bound", "genus_bound_attained",
    ),
    "Check": (
        "name", "statement", "left", "right", "relation", "passed", "sharp",
    ),
    "Skip": ("name", "reason"),
    "IdentityReport": ("checks", "skipped"),
    "CatalogEntry": (
        "name", "graph", "note", "meta", "expected", "connector_vertices",
        "derived_from",
    ),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_order_is_pinned(name):
    assert getattr(gemkit, name)._fields == FIELDS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_are_immutable(name):
    kind = getattr(gemkit, name)
    record = kind._make(range(len(kind._fields)))
    for field in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert tuple(record) == tuple(range(len(kind._fields)))


def test_every_exported_record_is_pinned():
    records = {
        name for name in gemkit.__all__
        if hasattr(getattr(gemkit, name), "_fields")
    }
    assert records == set(FIELDS)


def test_default_expectations_are_read_only(fig3):
    entry = gemkit.CatalogEntry(name="x", graph=fig3, note="")
    assert dict(entry.expected) == {}
    with pytest.raises(TypeError):
        entry.expected["rho"] = 1


def _fresh(code, *argv):
    """stdout of `code` run in a fresh interpreter, which must exit 0
    and write nothing to stderr."""
    src = str(Path(gemkit.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *argv],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # looking up every public name runs every layer
    code = (
        "import gemkit, gemkit.cli, sys; "
        "[getattr(gemkit, name) for name in gemkit.__all__]; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _fresh(code) == "[]\n"


# A layer has run once its module is a plain module again; `type()` reads
# that without a lookup, which would run the layer.
_PRINT_LAYERS = (
    "\nimport sys, types\n"
    "print(*sorted(name.removeprefix('gemkit.')\n"
    "              for name, module in sys.modules.items()\n"
    "              if name.startswith('gemkit.')\n"
    "              and type(module) is types.ModuleType))\n"
)
_CLI_CALL = (
    "import contextlib, io, sys, gemkit.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = gemkit.cli.main(sys.argv[1:])\n"
    "print(code, end=' ')\n"
)
_CLI_LAYERS = ["cli", "core", "gemfile"]


@pytest.mark.parametrize("code, layers", [
    ("import gemkit", []),
    ("import gemkit.cli", _CLI_LAYERS),
])
def test_import_runs_only_what_it_needs(code, layers):
    assert _fresh(code + _PRINT_LAYERS).split() == layers


@pytest.mark.parametrize("argv, layers", [
    (["info"], []),
    (["genus"], ["constructions", "genus"]),
    (["verify", "--rank", "1"], ["constructions", "genus", "verify"]),
    (["crystallize-double"], ["constructions"]),
])
@pytest.mark.parametrize("source", ["file", "catalog"])
def test_subcommand_runs_only_the_layers_it_reads(
    tmp_path, fig3, argv, layers, source
):
    if source == "file":
        token = str(tmp_path / "fig3.gem")
        gemkit.save_gem(fig3, token)
    else:
        token = "fig3_d3xs1"
        layers = layers + ["catalog"]
    out = _fresh(_CLI_CALL + _PRINT_LAYERS, argv[0], token, *argv[1:])
    assert out.split() == ["0"] + sorted(_CLI_LAYERS + layers)


_PRINT_JSON = (
    "print(sorted(name for name in sys.modules\n"
    "             if name.partition('.')[0] == 'json'))\n"
)


@pytest.mark.parametrize("argv", [
    ["genus", "fig4_boundary16"],
    ["verify", "fig4_boundary16", "--rank", "1"],
    ["crystallize-double", "fig3_d3xs1"],
])
def test_subcommand_without_json_output_leaves_json_unloaded(argv):
    assert _fresh(_CLI_CALL + _PRINT_JSON, *argv) == "0 []\n"


def test_json_output_loads_the_encoder():
    out = _fresh(_CLI_CALL + _PRINT_JSON, "info", "fig4_boundary16", "--json")
    assert "'json.encoder'" in out
