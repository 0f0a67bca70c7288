"""The package namespace: public names resolved from their home layers,
and layers run on first use, once, from any number of threads."""

import importlib.util
import json
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import gemkit

# Each task's first lookup runs a layer, through the layer's module, a
# `from` import or the package namespace; together they cover all six.
TASKS = '''
def on_core():
    g = gemkit.core.ColoredGraph(2, 2, [[(1, 2)]] * 3)
    return gemkit.census(g).tally

def on_gemfile():
    return gemkit.gemfile.export_gem(gemkit.ColoredGraph(2, 2, [[(1, 2)]] * 3))

def on_constructions():
    return gemkit.constructions.double(
        gemkit.catalog_get("fig3_d3xs1").graph).vertex_count

def on_genus():
    return gemkit.genus.regular_genus(gemkit.catalog_get("fig2_s3xI").graph)

def on_verify():
    return gemkit.verify.verify_identities(
        gemkit.catalog_get("fig4_boundary16").graph).passed

def on_catalog():
    from gemkit.catalog import catalog_get
    return catalog_get("fig1_s4").expected

def on_package_catalog():
    return gemkit.catalog_list()

def on_package_genus():
    return gemkit.rank_upper_bound(gemkit.catalog_get("fig3_d3xs1").graph)

TASK_LIST = [on_core, on_gemfile, on_constructions, on_genus, on_verify,
             on_catalog, on_package_catalog, on_package_genus]
'''

# runs every task at once, each in its own thread, behind one barrier
CONCURRENT = '''
import json, sys, threading
import gemkit

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(len(TASK_LIST), timeout=60)
results = [None] * len(TASK_LIST)

def run(i):
    barrier.wait()
    try:
        results[i] = repr(TASK_LIST[i]())
    except Exception as exc:
        results[i] = f"{type(exc).__name__}: {exc}"

threads = [threading.Thread(target=run, args=(i,)) for i in range(len(TASK_LIST))]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps([results, [t.is_alive() for t in threads]]))
'''


def test_first_use_from_eight_threads_gives_the_sequential_results():
    tasks: dict = {"gemkit": gemkit}
    exec(TASKS, tasks)
    expected = [repr(task()) for task in tasks["TASK_LIST"]]
    assert len(expected) == 8
    src = str(Path(gemkit.__file__).resolve().parent.parent)
    for _ in range(5):
        child = subprocess.run(
            [sys.executable, "-W", "error", "-c", TASKS + CONCURRENT],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert (child.returncode, child.stderr) == (0, "")
        results, alive = json.loads(child.stdout)
        assert alive == [False] * 8
        assert results == expected


def test_every_public_name_is_its_home_modules_object():
    assert gemkit.__all__ == sorted(set(gemkit.__all__))
    assert len(gemkit.__all__) == 51
    for name in gemkit.__all__:
        value = getattr(gemkit, name)
        home = value.__module__
        assert home.startswith("gemkit.") and home != "gemkit.cli", name
        assert getattr(sys.modules[home], name) is value, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from gemkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gemkit.__all__)
    assert all(namespace[name] is getattr(gemkit, name) for name in namespace)


# lists dir(gemkit) in a fresh interpreter, and the layers still unrun
DIR = """
import json, sys
import gemkit
names = dir(gemkit)
unrun = sorted(name for name, module in sys.modules.items()
               if name.startswith("gemkit.") and type(module) is gemkit._Layer)
print(json.dumps([names, unrun]))
"""


def test_dir_lists_every_public_name_and_layer_without_running_one():
    layers = ["catalog", "constructions", "core", "gemfile", "genus",
              "verify"]
    assert set(gemkit.__all__) | set(layers) <= set(dir(gemkit))
    # a fresh interpreter, where no layer has run yet
    src = str(Path(gemkit.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", DIR],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, "")
    names, unrun = json.loads(child.stdout)
    assert names == sorted(names)
    assert set(gemkit.__all__) | set(layers) <= set(names)
    assert unrun == [f"gemkit.{layer}" for layer in layers]


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        gemkit.no_such_name


def test_package_names_are_looked_up_on_every_access(monkeypatch):
    def replacement(g):
        raise AssertionError("not called")

    homes = {name: sys.modules[getattr(gemkit, name).__module__]
             for name in gemkit.__all__}
    monkeypatch.setattr(gemkit.core, "census", replacement)
    assert gemkit.census is replacement
    # so is every other name, in the module that defines it
    for name, home in homes.items():
        monkeypatch.setattr(home, name, replacement)
        assert getattr(gemkit, name) is replacement, name


@pytest.fixture
def probe_layer(tmp_path):
    """A factory of layers not yet run, from source text, registered in
    `sys.modules` as `gemkit_probe`; `names` are set before the run."""

    def make(source, **names):
        path = tmp_path / "probe.py"
        path.write_text(source)
        spec = importlib.util.spec_from_file_location("gemkit_probe", path)
        layer = importlib.util.module_from_spec(spec)
        layer.__class__ = gemkit._Layer
        vars(layer).update(names)
        sys.modules["gemkit_probe"] = layer
        return layer

    yield make
    sys.modules.pop("gemkit_probe", None)


def test_a_layer_reentered_while_it_runs_fails_as_a_circular_import(
    probe_layer
):
    probe = probe_layer(
        "import sys\n"
        "runs.append(1)\n"
        "try:\n"
        "    sys.modules[__name__].defined_below\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "defined_below = True\n",
        runs=[],
    )
    assert "circular import" in probe.error
    assert probe.defined_below and probe.runs == [1]
    assert type(probe) is types.ModuleType


def test_a_layers_docstring_is_read_after_it_runs(probe_layer):
    probe = probe_layer('"""Probe docstring."""\n')
    assert probe.__doc__ == "Probe docstring."
    assert type(probe) is types.ModuleType


def test_a_lookup_waits_while_another_thread_runs_the_layer(probe_layer):
    started, proceed = threading.Event(), threading.Event()
    probe = probe_layer(
        "early = True\n"
        "started.set()\n"
        "proceed.wait(10)\n"
        "late = True\n",
        started=started, proceed=proceed,
    )
    seen = []
    runner = threading.Thread(target=lambda: probe.late)
    runner.start()
    assert started.wait(10)
    # `early` is already bound, yet the lookup must wait for `late`
    reader = threading.Thread(
        target=lambda: seen.append((probe.early, "late" in vars(probe))))
    reader.start()
    reader.join(0.2)
    proceed.set()
    runner.join(10)
    reader.join(10)
    assert not runner.is_alive() and not reader.is_alive()
    assert seen == [(True, True)]
