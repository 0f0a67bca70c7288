"""Record types: `typing.NamedTuple` classes with pinned field order,
immutable, and imported without `dataclasses` or `inspect`."""

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


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(gemkit.__file__).resolve().parent.parent)
    code = (
        "import gemkit, gemkit.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")
