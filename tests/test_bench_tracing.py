"""The benchmark tracer still finds every library function it wraps.

`bench/tracing.Tracer` looks the traced functions up by name and wraps
`LinearSystem.__post_init__`, so a rename in the library breaks
`bench/run.py --trace 1`; this test catches that in the test suite.
"""

import importlib.util
from pathlib import Path

from pathsystems import cli, core, generators, jsonio, metrize, ratlp, rational
from pathsystems.generators import enumerate_monotone, monotone_system

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_counts_one_lp_per_strictness_test():
    lib = dict(cli=cli, core=core, generators=generators, jsonio=jsonio,
               metrize=metrize, ratlp=ratlp, rational=rational)
    tracer = load_tracing().Tracer(lib)
    system = monotone_system(next(enumerate_monotone(3)))
    original = metrize.is_strictly_metric
    with tracer.installed():
        assert metrize.is_strictly_metric(system).strict
    assert metrize.is_strictly_metric is original
    metrics, _ = tracer.metrics()
    assert metrics["ratlp.solve_feasibility.calls"] == (1, "count")
