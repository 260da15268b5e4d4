"""The benchmark's trace mode (``perfbench/run.py --trace``) reaches into the
package by name; these checks fail when a name it reads goes away.

They load ``perfbench/tracer.py`` and ``perfbench/job.py`` from the checkout
and call their lookups on real results.  No ``Tracer`` is built, since one
registers an at-fork hook for the rest of the process.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from aoi_csma import meanfield as mf
from aoi_csma import sim
from aoi_csma.core import Policy, PolicyScheme, Scheme, StateFractions, SystemParams

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
PARAMS = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0, n_devices=10, n_channels=2)
W_WP = PolicyScheme(Policy.W, Scheme.WP)


@pytest.fixture
def bench_module(monkeypatch):
    """Load a perfbench module by file name, outside ``sys.modules``; the
    ``sys.path`` entries it adds are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      os.path.join(BENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def test_every_traced_layer_function_resolves(bench_module):
    tracer = bench_module("tracer")
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"aoi_csma.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    spans = {f"{layer}.{name}" for layer, names in tracer.LAYER_FUNCTIONS.items()
             for name in names}
    assert set(tracer.ATTRS) <= spans


def test_span_attributes_read_real_results(bench_module):
    tracer = bench_module("tracer")
    result = sim.run(sim.SimConfig(params=PARAMS, ps=W_WP, seed=1, stop_arrivals=200))
    counts = tracer.ATTRS["sim.run"](result)
    assert counts["arrivals"] == result.arrivals and counts["n_devices"] == 10
    assert all(isinstance(v, int) for v in counts.values())
    trajectory = mf.integrate(Policy.W, PARAMS, StateFractions(1.0, 0.0, 0.0), t_end=1.0,
                              dt=0.1)
    assert tracer.ATTRS["meanfield.integrate"](trajectory) == {"steps": 10}


@pytest.mark.parametrize("sample_dt", [None, 0.5])
def test_replicate_summary_reads_a_real_replicate(bench_module, sample_dt):
    job = bench_module("job")
    config = sim.SimConfig(params=PARAMS, ps=W_WP, seed=1, stop_time=5.0, sample_dt=sample_dt)
    pooled = sim.replicate(config, 2)
    summary = job._replicate_summary(pooled)
    assert summary["n_devices"] == 10
    if sample_dt is None:
        assert summary["final_fractions"] is None
    else:  # one (x_i, x_w, x_s) row per replication
        rows = summary["final_fractions"]
        assert [len(row) for row in rows] == [3, 3]
        assert all(abs(sum(row) - 1.0) < 1e-12 for row in rows)
