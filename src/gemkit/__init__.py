"""Edge-colored gem graphs of compact PL manifolds: invariants,
constructions, and a machine-checkable identity/bound harness.

`import gemkit` is cheap: it runs none of the six layers (`core`,
`gemfile`, `constructions`, `genus`, `verify`, `catalog`).  Each layer
is put in `sys.modules` at once, so `import gemkit.genus` and
`from gemkit import census` work as usual, but its code runs only when
a name it does not yet hold is first looked up.  A one-shot CLI process
thus runs just the layers its subcommand reads.

First use is thread-safe.  One reentrant lock runs one layer at a time,
and a lookup on a layer that has not finished running waits for it, so
no other thread sees a half-run layer; a lookup that re-enters a layer
while it runs fails as in a circular import.

The public names are listed once, each with its home layer, in
`_HOME`: `__all__` is its keys, sorted, and the layers registered
below are its values in first-seen order.  Each name is looked up in
its home layer on every access and never copied into this package, so
a name replaced on its home module is the one `gemkit.<name>` gives.
"""

import importlib.util
import sys
import threading
import types

__version__ = "1.0.0"

# public name -> the layer that defines it
_HOME = {
    name: layer
    for layer, names in (
        ("core", (
            "BoundaryGraph", "ColoredGraph", "FaceVector", "GemError",
            "ManifoldMeta", "ResidueCensus", "ResidueComponent",
            "ValidationReport", "VertexTally", "boundary_graph", "census",
            "face_vector", "residue_components", "validate",
        )),
        ("gemfile", ("export_gem", "load_gem", "parse_gem", "save_gem")),
        ("constructions", (
            "Dipole", "connected_sum", "crystallize_double", "double",
            "find_one_dipoles", "interval_product", "remove_one_dipole",
            "sphere_connector_sum",
        )),
        ("genus", (
            "GenusProfile", "MinimalityReport", "SchemeProfile",
            "WeakSemiSimpleReport", "boundary_genus_cap", "certify_minimal",
            "complexity_lower_bounds", "enumerate_schemes", "gem_complexity",
            "genus_lower_bounds", "rank_upper_bound", "regular_genus",
            "rho_epsilon", "rho_epsilon_census", "rho_epsilon_via_double",
            "vertex_lower_bounds", "weak_semi_simple",
        )),
        ("verify", (
            "Check", "IdentityReport", "Skip", "verify_bounds",
            "verify_identities",
        )),
        ("catalog", ("CatalogEntry", "catalog_get", "catalog_list")),
    )
    for name in names
}

__all__ = sorted(_HOME)

# reentrant: running a layer runs the layers it imports
_lock = threading.RLock()


class _Layer(types.ModuleType):
    """A layer in `sys.modules` whose code has not run.  The first lookup
    of a name it does not hold runs it, and it becomes a plain module."""

    def __getattribute__(self, name):
        # waits while a layer runs in another thread
        with _lock:
            if name == "__doc__":
                # None until the layer runs, not missing, so ask for it
                return self.__getattr__(name)
            return types.ModuleType.__getattribute__(self, name)

    def __getattr__(self, name):
        with _lock:
            spec = self.__spec__
            # `_initializing` is the import system's own mark of a module
            # that is running: while it is set, a missing name raises the
            # error of a circular import instead of running the code again
            running = getattr(spec, "_initializing", False)
            if type(self) is _Layer and not running:
                spec._initializing = True
                try:
                    spec.loader.exec_module(self)
                finally:
                    spec._initializing = False
                self.__class__ = types.ModuleType
            return types.ModuleType.__getattribute__(self, name)


for _name in dict.fromkeys(_HOME.values()):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _layer = importlib.util.module_from_spec(_spec)
    _layer.__class__ = _Layer
    sys.modules[_spec.name] = globals()[_name] = _layer
del _name, _spec, _layer


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
