"""The four benchmark workloads: seeded input generation and the output
gate.  Standard library only, so that generating inputs and checking
reports never imports the program under test.

Each workload names its public entry point, the number of cases one run
attempts (one verify_* call, one curve cell or one Bredon instance), how to
make its inputs from a seed, and how to check a report.  `check` returns a
list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import gcd

CURVE_PRIMES = (3, 5, 7)
CURVE_DEGREES = (1, 1, 3, 3)  # two linear and two cubic f per prime
BREDON_COUNT = 500
BREDON_SHAPE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    cases: int  # verify_* calls, curve cells or Bredon instances per run
    seeded: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ffqlc-matrix", 1888, False),
        Workload("curves-matrix", 36, True),
        Workload("bredon-random", BREDON_COUNT, True),
        Workload("dirichlet-matrix", 1116, False),
    )
}


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _distinct_primes(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


# ---------------------------------------------------------------------------
# inputs


def curve_specs(seed: int) -> list[dict]:
    """Acceptance-6 shape: every p, every d | p - 1, and per p two linear
    and two cubic f (distinct, nonzero leading coefficient, little-endian
    mod p) shared across all d."""
    rng = random.Random(seed)
    specs = []
    for p in CURVE_PRIMES:
        fs: list[list[int]] = []
        for deg in CURVE_DEGREES:
            f = None
            while f is None or f in fs:
                f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            fs.append(f)
        for d in _divisors(p - 1):
            specs.extend({"p": p, "d": d, "f": f} for f in fs)
    return specs


def bredon_instances(seed: int, count: int = BREDON_COUNT) -> list[list[int]]:
    """Acceptance-3 generator: m a product of up to four primes from
    {2, 3, 5, 7}, a modulus up to 400 and a unit u with u^m = 1.  Returns
    [mod, u, m, lambda] rows, lambda the number of distinct primes of m.

    The sequence of m (and so of lambda) is drawn once, from
    BREDON_SHAPE_SEED; the seed draws each row's modulus and unit.  An
    instance's cost grows with the number of divisors of m.  With m drawn
    per seed, the divisor counts of seeds 11-20 summed to between -8% and
    +8% of their median and run time followed them, so runs on different
    seeds measured the seed rather than the program."""
    shape = random.Random(BREDON_SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lam = shape.randint(1, 4)
        m = 1
        for p in shape.sample((2, 3, 5, 7), lam):
            m *= p ** shape.randint(1, 2 if p < 5 else 1)
        while True:
            mod = rng.randint(2, 400)
            x = rng.randint(1, mod)
            if gcd(x, mod) == 1:
                break
        phi = _euler_phi(mod)
        out.append([mod, pow(x, phi // gcd(phi, m), mod), m, _distinct_primes(m)])
    if {row[3] for row in out} < {1, 2, 3, 4}:
        raise ValueError("BREDON_SHAPE_SEED does not reach every lambda in 1..4")
    return out


def make_job(name: str, seed: int, out_dir: str) -> dict:
    """Write the workload's generated input under out_dir and return the
    worker job (without report path) that runs it."""
    if name == "ffqlc-matrix":
        return {"workload": name, "argv": ["ffqlc", "--q", "2,3,5,7", "--m-max", "12", "--k-max", "6"]}
    if name == "dirichlet-matrix":
        return {"workload": name, "argv": ["dirichlet", "--N-max", "40", "--n-max", "3"]}
    if name == "curves-matrix":
        path = os.path.join(out_dir, f"curves-{seed}.json")
        with open(path, "w") as fh:
            json.dump(curve_specs(seed), fh)
        return {"workload": name, "argv": ["curves", "--spec", path], "input": path}
    if name == "bredon-random":
        path = os.path.join(out_dir, f"bredon-{seed}.json")
        with open(path, "w") as fh:
            json.dump(bredon_instances(seed), fh)
        return {"workload": name, "input": path}
    raise ValueError(f"unknown workload {name}")


# ---------------------------------------------------------------------------
# gate


def _parse_tsv(text: str):
    """(records, summary counts) of a qlverify TSV report."""
    lines = text.split("\n")
    if not lines or lines[0] != "case\tquantity\tpath\tvalue\tstatus" or lines[-1] != "":
        raise ValueError("not a qlverify TSV report")
    summary = lines[-2].split("\t")
    if summary[0] != "# summary":
        raise ValueError("missing summary line")
    counts = {k: int(v) for k, v in (piece.split("=") for piece in summary[1:])}
    records = [line.split("\t") for line in lines[1:-2]]
    if any(len(r) != 5 for r in records):
        raise ValueError("malformed record")
    return records, counts


def _status_counts(records) -> dict:
    out = {"PASS": 0, "FAIL": 0, "PREDICTION": 0, "SKIP": 0}
    for r in records:
        out[r[4]] = out.get(r[4], 0) + 1
    return out


def _check_counts(records, counts, expected) -> list[str]:
    problems = []
    actual = _status_counts(records)
    if actual != counts:
        problems.append(f"summary line {counts} disagrees with records {actual}")
    if expected is not None and actual != expected:
        problems.append(f"status counts {actual}, expected {expected}")
    return problems


def _check_curves(records, seed: int) -> list[str]:
    problems = []
    by_case: dict[str, list] = {}
    for r in records:
        by_case.setdefault(r[0], []).append(r)
    expected_cases = []
    cell_skips = 0
    for spec in curve_specs(seed):
        p, d, f = spec["p"], spec["d"], spec["f"]
        case = f"curve p={p} d={d} f=[{','.join(map(str, f))}]"
        expected_cases.append(case)
        recs = by_case.get(case, [])
        if p in (5, 7) and len(f) == 4:
            # 5^12 and 7^12 elements exceed the enumeration budget
            cell_skips += 1
            if [(r[1], r[4]) for r in recs] != [("all", "SKIP")]:
                problems.append(f"{case}: expected one cell-level SKIP")
            continue
        want = ["zeta_factorization"]
        want += [f"descent s={s}" for s in _divisors(d)]
        want += [f"induction s={s} b={b}" for s in _divisors(d) for b in range(s)]
        want += ["moebius_inversion", "special_value_norm n=1", "special_value_norm n=2"]
        if [r[1] for r in recs] != want:
            problems.append(f"{case}: records {[r[1] for r in recs]} differ from {want}")
            continue
        for r in recs:
            allowed = ("PASS", "SKIP") if r[1].startswith("special_value") else ("PASS",)
            if r[4] not in allowed:
                problems.append(f"{case} {r[1]}: status {r[4]}")
    if list(by_case) != expected_cases:
        problems.append("report cells differ from the generated spec list")
    if cell_skips != 14:
        problems.append(f"{cell_skips} cell-level SKIPs, expected 14")
    return problems


def _check_bredon(text: str, seed: int) -> list[str]:
    """Every instance: H^s = 0 for -lambda <= s < 0 and H^0 equal to the
    closed-form fixed-point oracle, in the generated order."""
    problems = []
    rows = [line.split("\t") for line in text.split("\n")[:-1]]
    instances = bredon_instances(seed)
    if len(rows) != len(instances) or not text.endswith("\n"):
        return [f"{len(rows)} instance lines, expected {len(instances)}"]
    for row, inst in zip(rows, instances):
        lam = inst[3]
        if row[:4] != [str(v) for v in inst] or len(row) != 4 + lam + 2:
            problems.append(f"instance line {row[:4]} does not match input {inst}")
            continue
        groups, oracle = row[4:-1], row[-1]
        if any(g != "0" for g in groups[:-1]):
            problems.append(f"instance {inst}: cohomology off degree 0: {groups[:-1]}")
        if groups[-1] != oracle:
            problems.append(f"instance {inst}: H^0 = {groups[-1]} but oracle gives {oracle}")
    return problems


EXPECTED_COUNTS = {
    "ffqlc-matrix": {"PASS": 13152, "FAIL": 0, "PREDICTION": 0, "SKIP": 0},
    "dirichlet-matrix": {"PASS": 1116, "FAIL": 0, "PREDICTION": 124, "SKIP": 0},
    "curves-matrix": None,  # PASS/SKIP split of special values depends on f
}


def check(name: str, seed: int, rc: int, text: str) -> list[str]:
    """Problems with one run's report; [] when it passes the gate."""
    if rc != 0:
        return [f"exit code {rc}"]
    if name == "bredon-random":
        return _check_bredon(text, seed)
    try:
        records, counts = _parse_tsv(text)
    except ValueError as exc:
        return [str(exc)]
    problems = _check_counts(records, counts, EXPECTED_COUNTS[name])
    if counts.get("FAIL", 0):
        problems.append(f"{counts['FAIL']} FAIL records")
    if name == "curves-matrix":
        problems += _check_curves(records, seed)
    return problems


def report_records(name: str, text: str) -> int:
    """Number of qlverify report records (0 for the API-driven workload)."""
    if name == "bredon-random":
        return 0
    return max(0, text.count("\n") - 2)
