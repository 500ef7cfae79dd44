"""Outside-in tracing of qlverify: spans around public callables, rebound
from the benchmark without editing the package.

`install(run_id)` replaces each callable listed in SPANS by a wrapper that
records one span per call (name, start, end, parent) in memory.  Module
functions are rebound in every qlverify module that imported them, not only
in the defining one; methods are replaced on their class.  Self time is a
span's duration minus the time covered by its child spans.  Spans are kept
in flat arrays and written out once, by `Tracer.dump`, after the measured
region ends.
"""

from __future__ import annotations

import array
import importlib
import json
import statistics
import sys
import time

# (span name, defining module, attribute path).  Several callables may share
# one span name; the layer metrics aggregate by name.
SPANS = (
    ("numtheory.factorize", "numtheory", "factorize"),
    ("numtheory.euler_phi", "numtheory", "euler_phi"),
    ("numtheory.divisors", "numtheory", "divisors"),
    ("numtheory.squarefree_subsets", "numtheory", "squarefree_subsets"),
    ("numtheory.is_prime", "numtheory", "is_prime"),
    ("numtheory.prime_power_decomposition", "numtheory", "prime_power_decomposition"),
    ("numtheory.multiplicative_order", "numtheory", "multiplicative_order"),
    ("numtheory.smallest_primitive_root", "numtheory", "smallest_primitive_root"),
    ("cyclotomic.mul", "cyclotomic", "CyclotomicNumber.__mul__"),
    ("cyclotomic.mul", "cyclotomic", "CyclotomicNumber.__rmul__"),
    ("cyclotomic.inverse", "cyclotomic", "CyclotomicNumber.inverse"),
    ("cyclotomic.norm", "cyclotomic", "CyclotomicNumber.norm_to_Q"),
    ("cyclotomic.quotient", "cyclotomic", "quotient_by_principal"),
    ("abelian.snf", "abelian", "smith_normal_form"),
    ("abelian.membership", "abelian", "in_column_span"),
    ("abelian.cohomology", "abelian", "cohomology"),
    ("equivariant.mackey", "equivariant", "cyclic_fixed_point_mackey"),
    ("equivariant.mackey", "ffqlc", "k_mackey_finite_field"),
    ("equivariant.mackey_validate", "equivariant", "CyclicMackeyData.__post_init__"),
    ("equivariant.complex", "equivariant", "moore_cochain_complex"),
    ("equivariant.bredon", "equivariant", "bredon_cohomology"),
    ("equivariant.oracle", "equivariant", "h0_fixed_point_oracle"),
    ("ffqlc.case", "ffqlc", "verify_main_theorem_ff"),
    ("ffqlc.case", "ffqlc", "verify_induced_ff"),
    ("ffqlc.l_value", "ffqlc", "artin_l_value_ff"),
    ("gf.mul", "gf", "FieldExt.mul"),
    ("curves.tables", "curves", "_FieldTables.__init__"),
    ("curves.histogram", "curves", "_value_log_histogram"),
    ("curves.series", "curves", "TruncatedLSeries.from_log_sums"),
    ("curves.series", "curves", "TruncatedLSeries.log_sums"),
    ("curves.series", "curves", "TruncatedLSeries.__mul__"),
    ("curves.series", "curves", "TruncatedLSeries.inverse"),
    ("curves.series", "curves", "TruncatedLSeries.__pow__"),
    ("curves.recon", "curves", "rational_reconstruction"),
    ("curves.cell", "curves", "verify_l_identities"),
    ("dirichlet.case", "dirichlet", "verify_norm_identity_numberfield"),
    ("dirichlet.case", "dirichlet", "verify_order_identity"),
    ("dirichlet.bernoulli", "dirichlet", "generalized_bernoulli"),
    ("dirichlet.dedekind", "dirichlet", "dedekind_zeta_abelian"),
    ("report.serialize", "report", "VerificationReport.to_tsv"),
    ("report.serialize", "report", "VerificationReport.to_json"),
)

# lru_caches whose counters the per-layer metrics publish, by defining
# module and name.  Every lru_cache found in the package at run time is
# also listed, with its cache_info(), in the run's result record.
CACHES = (
    ("curves", "_tables"),
    ("curves", "_value_log_histogram"),
    ("cyclotomic", "cyclotomic_polynomial"),
    ("dirichlet", "unit_group"),
    ("dirichlet", "_unit_dlog_table"),
    ("dirichlet", "conductor_and_primitivize"),
    ("dirichlet", "bernoulli_number"),
    ("dirichlet", "dirichlet_l_value"),
    ("ffqlc", "_bredon_pi_odd"),
    ("gf", "default_modulus"),
)

PACKAGE = "qlverify"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def find_caches() -> dict:
    """Every lru_cache object in the package, keyed "module.name" by its
    defining module, found by scanning module globals."""
    found = {}
    for mod in _package_modules():
        for obj in list(vars(mod).values()):
            if callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"):
                key = f"{obj.__module__.removeprefix(PACKAGE + '.')}.{obj.__qualname__}"
                found.setdefault(key, obj)
    return found


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.name_of = array.array("i")
        self.parent_of = array.array("i")
        self.self_s: list[float] = []
        self.tables_bytes = 0
        self.caches: dict = {}
        # open spans, innermost last, and the time their finished children cover
        self._open: list[int] = []
        self._covered: list[float] = [0.0]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        starts, ends, name_of, parent_of = self.starts, self.ends, self.name_of, self.parent_of
        open_, covered, self_s = self._open, self._covered, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            parent_of.append(open_[-1] if open_ else -1)
            name_of.append(nid)
            ends.append(0.0)
            open_.append(sid)
            covered.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                open_.pop()
                dur = t1 - t0
                self_s[nid] += dur - covered.pop()
                covered[-1] += dur

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def durations(self) -> dict[str, list[float]]:
        """Inclusive duration of every span, grouped by span name."""
        out = {name: [] for name in self.names}
        names = self.names
        for n, s, e in zip(self.name_of, self.starts, self.ends):
            out[names[n]].append(e - s)
        return out

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return self._covered[0]

    def dump(self, path: str):
        """Write every span, once: a JSON header line, then one line per
        span with index, name, start, end, parent index and run id."""
        names, run_id = self.names, self.run_id
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": run_id, "columns": [
                "span", "name", "start_s", "end_s", "parent", "run_id"]}) + "\n")
            fh.writelines(
                f"{i}\t{names[n]}\t{s:.9f}\t{e:.9f}\t{p}\t{run_id}\n"
                for i, (n, s, e, p) in enumerate(
                    zip(self.name_of, self.starts, self.ends, self.parent_of))
            )


def _resolve(owner, dotted: str):
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(run_id: str) -> Tracer:
    """Import the package, wrap every callable in SPANS and return the
    tracer that records their spans."""
    importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    tracer = Tracer(run_id)
    tracer.caches = find_caches()
    modules = _package_modules()
    for name, module_name, dotted in SPANS:
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        owner, attr = _resolve(module, dotted)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            if vars(mod).get(attr) is original:
                setattr(mod, attr, wrapped)
    _count_table_bytes(tracer)
    return tracer


def _count_table_bytes(tracer: Tracer):
    """Add the array sizes of every discrete-log table built to
    tracer.tables_bytes (computed from array nbytes, not measured RSS)."""
    curves = importlib.import_module(PACKAGE + ".curves")
    init = curves._FieldTables.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.tables_bytes += int(self.enc_pow.nbytes) + int(self.dlog.nbytes)

    counted.__wrapped__ = init
    curves._FieldTables.__init__ = counted


def _percentile_ms(values, q):
    if len(values) < 2:
        return 1000.0 * values[0] if values else 0.0
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, wall_s: float, scale: float = 1.0) -> tuple[dict, dict]:
    """The per-layer metrics of one traced run, and call count, inclusive
    and self time for every span name.  wall_s is the run's wall-clock time;
    the metrics' times (*_s, *_ms.*) are multiplied by scale, the run's
    reference seconds per wall-clock second.  The span table stays in
    wall-clock seconds."""
    durations = tracer.durations()

    def calls(name):
        return len(durations.get(name, ()))

    def self_s(*names):
        return sum(tracer.self_s[tracer.names.index(n)] for n in names if n in tracer.names)

    def total_s(name):
        return sum(durations.get(name, ()))

    info = {key: obj.cache_info() for key, obj in tracer.caches.items()}

    def hit_ratio(key):
        ci = info.get(key)
        return ci.hits / (ci.hits + ci.misses) if ci and ci.hits + ci.misses else 0.0

    numtheory = [n for n in tracer.names if n.startswith("numtheory.")]
    out = {
        "numtheory.factorize.calls": calls("numtheory.factorize"),
        "numtheory.euler_phi.calls": calls("numtheory.euler_phi"),
        "numtheory.self_s": self_s(*numtheory),
        "cyclotomic.mul.calls": calls("cyclotomic.mul"),
        "cyclotomic.mul.self_s": self_s("cyclotomic.mul"),
        "cyclotomic.inverse.self_s": self_s("cyclotomic.inverse"),
        "cyclotomic.norm.calls": calls("cyclotomic.norm"),
        "cyclotomic.norm.self_s": self_s("cyclotomic.norm"),
        "cyclotomic.quotient.self_s": self_s("cyclotomic.quotient"),
        "abelian.snf.calls": calls("abelian.snf"),
        "abelian.snf.self_s": self_s("abelian.snf"),
        "abelian.membership.calls": calls("abelian.membership"),
        "abelian.membership.self_s": self_s("abelian.membership"),
        "abelian.cohomology.self_s": self_s("abelian.cohomology"),
        "equivariant.mackey.calls": calls("equivariant.mackey"),
        "equivariant.mackey_validate.self_s": self_s("equivariant.mackey_validate"),
        "equivariant.complex.self_s": self_s("equivariant.complex"),
        "equivariant.bredon.calls": calls("equivariant.bredon"),
        "equivariant.bredon.self_s": self_s("equivariant.bredon"),
        "equivariant.oracle.self_s": self_s("equivariant.oracle"),
        "ffqlc.case.calls": calls("ffqlc.case"),
        "ffqlc.case.self_s": self_s("ffqlc.case"),
        "ffqlc.case_ms.p50": _percentile_ms(durations.get("ffqlc.case", []), 50),
        "ffqlc.case_ms.p99": _percentile_ms(durations.get("ffqlc.case", []), 99),
        "ffqlc.l_value.self_s": self_s("ffqlc.l_value"),
        "ffqlc.bredon_cache.hit_ratio": hit_ratio("ffqlc._bredon_pi_odd"),
        "gf.mul.calls": calls("gf.mul"),
        "gf.mul.self_s": self_s("gf.mul"),
        "curves.tables.built": calls("curves.tables"),
        "curves.tables.build_s": total_s("curves.tables"),
        "curves.tables.bytes": tracer.tables_bytes,
        "curves.histogram.calls": calls("curves.histogram"),
        "curves.histogram.hit_ratio": hit_ratio("curves._value_log_histogram"),
        "curves.histogram.self_s": self_s("curves.histogram"),
        "curves.series.self_s": self_s("curves.series"),
        "curves.recon.self_s": self_s("curves.recon"),
        "curves.cell_ms.p50": _percentile_ms(durations.get("curves.cell", []), 50),
        "dirichlet.case.calls": calls("dirichlet.case"),
        "dirichlet.bernoulli.calls": calls("dirichlet.bernoulli"),
        "dirichlet.bernoulli.self_s": self_s("dirichlet.bernoulli"),
        "dirichlet.l_value.hit_ratio": hit_ratio("dirichlet.dirichlet_l_value"),
        "dirichlet.dedekind.self_s": self_s("dirichlet.dedekind"),
        "report.serialize_s": total_s("report.serialize"),
        "trace.coverage": tracer.top_level_s() / wall_s if wall_s > 0 else 0.0,
    }
    for key in out:
        if key.endswith("_s") or "_ms." in key:
            out[key] *= scale
    for module, name in CACHES:
        ci = info.get(f"{module}.{name}")
        for field in ("hits", "misses", "currsize"):
            out[f"cache.{module}.{name}.{field}"] = getattr(ci, field) if ci else 0
    spans = {name: {"calls": len(durations[name]), "total_s": sum(durations[name]),
                    "self_s": tracer.self_s[i]} for i, name in enumerate(tracer.names)}
    return out, spans
