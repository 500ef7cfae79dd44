"""Every name the benchmark tracer binds still exists in the package.

benchmarks/tracer.py wraps the callables in its SPANS table and reads the
array sizes of the curve tables; a renamed or deleted name would otherwise
fail only a traced benchmark run.  The tracer module is loaded from its file
and its tables are resolved here without calling install, which would
rebind the package for the rest of the session."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qlverify_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_a_callable():
    tracer = load_tracer()
    for name, module_name, dotted in tracer.SPANS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner, attr = tracer._resolve(module, dotted)
        assert callable(getattr(owner, attr, None)), (name, module_name, dotted)


def test_every_published_cache_exists():
    tracer = load_tracer()
    for module_name, name in tracer.CACHES:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert hasattr(getattr(module, name, None), "cache_info"), (module_name, name)


def test_curve_tables_have_the_arrays_the_tracer_counts():
    from qlverify.curves import _tables

    t = _tables(3, 2)
    assert t.enc_pow.nbytes > 0 and t.dlog.nbytes > 0
