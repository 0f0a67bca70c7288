import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import gemkit.core
from gemkit import (
    catalog_get,
    catalog_list,
    crystallize_double,
    interval_product,
    sphere_connector_sum,
)


@pytest.fixture
def census_work(monkeypatch):
    """Count the calls of `core._join` and `core._edge_list`, and list
    per join its label count and the pairs it takes from its stream."""
    calls = dict.fromkeys(("_join", "_edge_list"), 0)
    takes = []
    real_join, real_edge_list = gemkit.core._join, gemkit.core._edge_list

    def join(edges, count):
        calls["_join"] += 1
        taken = 0

        def stream():
            nonlocal taken
            for pair in edges:
                taken += 1
                yield pair

        result = real_join(stream(), count)
        takes.append((count, taken))
        return result

    def edge_list(mate):
        calls["_edge_list"] += 1
        return real_edge_list(mate)

    monkeypatch.setattr(gemkit.core, "_join", join)
    monkeypatch.setattr(gemkit.core, "_edge_list", edge_list)
    return calls, takes


@pytest.fixture(scope="session")
def all_entries():
    return [catalog_get(name) for name in catalog_list()]


@pytest.fixture(scope="session")
def fig1():
    return catalog_get("fig1_s4").graph


@pytest.fixture(scope="session")
def fig2():
    return catalog_get("fig2_s3xI").graph


@pytest.fixture(scope="session")
def fig3():
    return catalog_get("fig3_d3xs1").graph


@pytest.fixture(scope="session")
def fig4():
    return catalog_get("fig4_boundary16").graph


@pytest.fixture(scope="session")
def s2xs1():
    return catalog_get("s2xs1_8").graph


@pytest.fixture(scope="session")
def rp3():
    return catalog_get("rp3_8").graph


# construction outputs are expensive enough to share across tests
@pytest.fixture(scope="session")
def product_s2xs1(s2xs1):
    return interval_product(s2xs1)


@pytest.fixture(scope="session")
def product_rp3(rp3):
    return interval_product(rp3)


@pytest.fixture(scope="session")
def connector_sum_fig3(fig3):
    return sphere_connector_sum(fig3, 1, fig3, 1)


@pytest.fixture(scope="session")
def crystallized_double_fig3(fig3):
    return crystallize_double(fig3)


@pytest.fixture(scope="session")
def bounded_construction_outputs(
    product_s2xs1, product_rp3, connector_sum_fig3, fig2, fig3
):
    """Every gem with boundary generated during the test run, for the
    universal boundary-identity sweeps."""
    return {
        "product_s2xs1": product_s2xs1,
        "product_rp3": product_rp3,
        "connector_sum_fig3": connector_sum_fig3,
    }
