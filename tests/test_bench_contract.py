"""The benchmark's view of the toolkit, checked in the main suite.

`perfbench/` imports names from `sdlp` and its tracer requires the layer
functions it reports on. Loading both files and building one instance of
each workload makes a rename of such a name fail here, not first in a
benchmark run; solving the first ten items of each workload makes a
regression on its shapes fail here too.
"""

import pytest
from conftest import bench_module

tracer = bench_module("tracer")
workloads = bench_module("workloads")


def test_tracer_installs_and_uninstalls():
    t = tracer.Tracer()
    t.install()
    t.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_one_item(name):
    workload = workloads.WORKLOADS[name]
    items = workloads.make_items(workload, 1, 0, workload.count)
    assert len(items) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_first_items_solve(name):
    # a wrong answer raises WrongAnswer; a decline or crash sets failed
    workload = workloads.WORKLOADS[name]
    items = workloads.make_items(workload, 1, 0, workload.count // 10)
    assert len(items) == 10
    for item in items:
        outcome = workloads.run_item(workload, item, workload.make_config())
        assert outcome.failed is None, (item.group, outcome.failed)
