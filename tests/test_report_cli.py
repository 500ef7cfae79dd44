import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qlverify import cli
from qlverify.report import FAIL, PASS, Record, VerificationReport, fmt_rational
from fractions import Fraction

DIGESTS = Path(__file__).resolve().parents[1] / "benchmarks" / "digests.json"
WORKLOADS = DIGESTS.with_name("workloads.py")


def test_fmt_rational():
    assert fmt_rational(Fraction(-2, 5)) == "-2/5"
    assert fmt_rational(3) == "3/1"
    assert fmt_rational(Fraction(6, 4)) == "3/2"


def test_report_counts_and_ok():
    rep = VerificationReport()
    rep.add("c", "q", "p", "v", PASS)
    assert rep.ok
    rep.add("c", "q2", "p", "v", FAIL)
    assert not rep.ok
    assert rep.counts()[FAIL] == 1
    with pytest.raises(ValueError):
        Record("c", "q", "p", "v", "MAYBE")


def test_record_is_immutable_and_validated():
    r = Record("c", "q", "p", "v", PASS)
    with pytest.raises(AttributeError):
        r.status = FAIL
    with pytest.raises(AttributeError):
        r.value = "w"
    with pytest.raises(ValueError):
        Record(r.case, r.quantity, r.path, r.value, "MAYBE")
    assert (r.case, r.quantity, r.path, r.value, r.status) == ("c", "q", "p", "v", PASS)


def test_report_check_records_both_sides_on_failure():
    rep = VerificationReport()
    rep.check("c", "q", "p", 1, 2)
    assert rep.records[0].status == FAIL
    assert rep.records[0].value == "1 != 2"


def test_tsv_and_json_shapes():
    rep = VerificationReport()
    rep.add("case1", "q", "path", "1/3", PASS)
    tsv = rep.to_tsv()
    assert tsv.splitlines()[0] == "case\tquantity\tpath\tvalue\tstatus"
    assert "case1\tq\tpath\t1/3\tPASS" in tsv
    lines = rep.to_json().strip().splitlines()
    first = json.loads(lines[0])
    assert first == {"case": "case1", "quantity": "q", "path": "path", "value": "1/3", "status": "PASS"}
    assert json.loads(lines[-1])["summary"]["PASS"] == 1


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args):
    # the child imports this checkout's package whatever PYTHONPATH says
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlverify.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,  # a hang fails the test instead of stalling the suite
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_ffqlc_golden_case():
    code, out, _ = run_cli(["ffqlc", "--q", "2", "--m-max", "2", "--k-max", "1"])
    assert code == 0
    assert "PASS" in out and "FAIL=0" in out
    assert "Z/3" in out


def test_cli_deterministic_output():
    code1, out1, _ = run_cli(["--format", "json", "dirichlet", "--N-max", "7", "--n-max", "1"])
    code2, out2, _ = run_cli(["--format", "json", "dirichlet", "--N-max", "7", "--n-max", "1"])
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.strip().splitlines()]
    predictions = [r for r in records if r.get("status") == "PREDICTION"]
    assert any(r["value"] == "1/24" for r in predictions)


def run_main(args, out=None):
    """cli.main(args) in this process, as (exit code, stdout, stderr), with
    stdout a fresh StringIO or the given one; an exception that escapes main
    fails the calling test."""
    out, err = io.StringIO() if out is None else out, io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_usage_error_exit_2(tmp_path):
    # one run through `python -m qlverify.cli`, the rest in process
    code, _, err = run_cli(["ffqlc", "--q", "6"])
    assert code == 2
    assert "usage error" in err and "Traceback" not in err
    code, _, _ = run_main(["nonsense"])
    assert code == 2
    for bad in (
        ["ffqlc", "--q", "-9"],
        ["ffqlc", "--q", "4,-9"],
        ["ffqlc", "--m-max", "-1"],
        ["ffqlc", "--k-max", "0"],
        ["dirichlet", "--N-max", "0"],
        ["curves", "--spec", "[1,2]"],
        ["dirichlet", "--field", '{"modulus":0,"subgroup":[0]}'],
        ["dirichlet", "--N-max", "3", "--n-max", "0"],
        ["dirichlet", "--N-max", "3", "--n-max", "-1"],
        ["--out", str(tmp_path / "missing" / "x"), "ffqlc"],
        ["curves", "--max-field-size", "0"],
        ["curves", "--max-field-size", "-5"],
        ["curves", "--spec", '{"p":3,"d":2,"f":[1,1]}', "--order", "50"],
        ["curves", "--spec", '{"p":3,"d":2,"f":[1,1],"x":1}'],
        ["dirichlet", "--field", '{"modulus":5,"subgroup":[1,4],"x":1}'],
        ["dirichlet", "--N-max", "0", "--field", '{"modulus":24,"subgroup":[1,23]}'],
        ["dirichlet", "--N-max", "0", "--field", '{"modulus":5,"subgroup":[1,2]}'],
    ):
        code, out, err = run_main(bad)
        assert code == 2
        assert "usage error" in err and "Traceback" not in err and out == ""
    assert not (tmp_path / "missing").exists()
    missing_spec = str(tmp_path / "nosuch.json")
    code, out, err = run_main(["curves", "--spec", missing_spec])
    assert (code, out) == (2, "")
    assert "usage error" in err and missing_spec in err and "Traceback" not in err
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text("not json")
    for bad, name in (
        (["curves", "--spec", str(bad_spec)], str(bad_spec)),
        (["curves", "--spec", '{"p": 3,'], '{"p": 3,'),
        (["dirichlet", "--field", "not json"], "not json"),
    ):
        code, out, err = run_main(bad)
        assert (code, out) == (2, "")
        assert "usage error" in err and name in err and "Traceback" not in err


def disk_full(*args):
    raise OSError(28, "No space left on device")


class FullStream(io.StringIO):
    """A stdout on a full disk whose every write raises ENOSPC."""

    write = disk_full


class BufferedFullStream(io.StringIO):
    """A stdout on a full disk that buffers writes and raises on flush."""

    flush = disk_full


def test_cli_report_that_cannot_be_written_exits_2():
    argv = ["ffqlc", "--m-max", "1", "--k-max", "1"]
    runs = [run_main(argv, out=FullStream()), run_main(argv, out=BufferedFullStream())]
    if os.path.exists("/dev/full"):
        runs.append(run_main(["--out", "/dev/full", *argv]))
    for code, _, err in runs:
        assert code == 2
        assert "cannot write the report" in err and "No space left" in err
        assert "Traceback" not in err and err.count("\n") == 1


def test_cli_out_of_memory_exits_2(monkeypatch):
    from qlverify import curves

    def no_memory(self, p, r):
        raise MemoryError

    monkeypatch.setattr(curves._FieldTables, "__init__", no_memory)
    curves._tables.cache_clear()  # so the first table is built, and fails, here
    curves._value_log_histogram.cache_clear()
    code, out, err = run_main(["curves", "--spec", '{"p":3,"d":2,"f":[0,1]}'])
    assert (code, out) == (2, "")
    assert "out of memory" in err and "--max-field-size" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_cli_skip_only_run_counts_its_skips(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["curves", "--spec", '{"p":3,"d":2,"f":[1,1]}', "--order", "50"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "no PASS or FAIL record, SKIP=1" in captured.err


def test_cli_oversized_order_skips_at_once(capsys):
    # p^B is never formed past the budget, so neither its 4773 digits at
    # B = 10^4 nor the work of 3^(10^8) stands between the run and its SKIP
    for order in ("10000", "100000000"):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["curves", "--spec", '{"p":3,"d":2,"f":[0,1]}', "--order", order])
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "yields no checks (no PASS or FAIL record, SKIP=1)" in captured.err
        assert elapsed < 1.0, (order, elapsed)


def test_cli_accepts_a_large_prime_at_once():
    # 10^18 + 3 is prime; trial division up to its square root never ends
    big = 10**18 + 3
    code, out, err = run_cli(["curves", "--spec", f'{{"p": {big}, "d": 1, "f": [1, 1]}}'])
    assert (code, out) == (2, "")
    assert "no checks (no PASS or FAIL record, SKIP=1)" in err
    code, out, _ = run_cli(["ffqlc", "--q", str(big), "--m-max", "2", "--k-max", "1"])
    assert code == 0
    assert out.splitlines()[-1] == "# summary\tPASS=21\tFAIL=0\tPREDICTION=0\tSKIP=0"


def test_cli_refuses_an_undecidable_prime_at_once():
    # above 3.3 * 10^24 with no prime factor <= 41: neither factored nor tested
    big = 10000000000037 * 1000000000039
    for args in (["ffqlc", "--q", str(big), "--m-max", "1", "--k-max", "1"],
                 ["curves", "--spec", f'{{"p": {big}, "d": 1, "f": [1, 1]}}']):
        code, out, err = run_cli(args)
        assert (code, out) == (2, "")
        assert "usage error" in err and "cannot decide" in err and "Traceback" not in err


@pytest.mark.parametrize("workload, argv", [
    ("dirichlet-matrix", ["dirichlet", "--N-max", "40", "--n-max", "3"]),
    ("ffqlc-matrix", ["ffqlc", "--q", "2,3,5,7", "--m-max", "12", "--k-max", "6"]),
])
def test_cli_report_matches_the_benchmark_digest(tmp_path, workload, argv):
    """The unseeded benchmark reports, byte for byte.  digests.json is only
    read here, never written."""
    expected = json.loads(DIGESTS.read_text())[workload]["*"]
    out = tmp_path / "report.tsv"
    assert cli.main(["--out", str(out), *argv]) == 0
    assert hashlib.sha256(out.read_text().encode()).hexdigest() == expected


def test_cli_curves_report_matches_the_benchmark_digest(tmp_path, monkeypatch):
    """The curves-matrix report at seed 11, byte for byte, on the specs
    that benchmarks/workloads.py generates.  The module is loaded from its
    file, and registered while it runs so that its dataclass can resolve
    it; digests.json is only read here, never written."""
    spec = importlib.util.spec_from_file_location("qlverify_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    specs = tmp_path / "curves-11.json"
    specs.write_text(json.dumps(workloads.curve_specs(11)))
    out = tmp_path / "report.tsv"
    assert cli.main(["--out", str(out), "curves", "--spec", str(specs)]) == 0
    expected = json.loads(DIGESTS.read_text())["curves-matrix"]["11"]
    assert hashlib.sha256(out.read_text().encode()).hexdigest() == expected


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.tsv"
    code, out, _ = run_cli(["--out", str(target), "ffqlc", "--q", "2", "--m-max", "1", "--k-max", "1"])
    assert code == 0
    assert out == ""
    assert "FAIL=0" in target.read_text()


def test_cli_curves_inline_spec():
    code, out, _ = run_cli([
        "curves", "--spec", '{"p": 3, "d": 2, "f": [0, 1]}',
    ])
    assert code == 0
    assert "zeta_factorization" in out


def test_cli_curves_order_too_small_skips_only_special_values():
    # order 2 is below the reconstruction bound 2*3 + 2 of f = x: the two
    # special-value records are SKIP, the seven series identities still PASS
    code, out, _ = run_cli([
        "curves", "--order", "2", "--spec", '{"p":3,"d":2,"f":[0,1]}',
    ])
    assert code == 0
    assert out.splitlines()[-1] == "# summary\tPASS=7\tFAIL=0\tPREDICTION=0\tSKIP=2"
    skips = [line for line in out.splitlines() if line.endswith("\tSKIP")]
    assert all("special_value_norm" in line and "order B=2" in line for line in skips)


def test_cli_exit_1_on_failure(monkeypatch):
    failing = VerificationReport()
    failing.add("c", "q", "p", "bad", FAIL)
    monkeypatch.setattr(cli, "run_dirichlet", lambda *a, **k: failing)
    assert cli.main(["dirichlet", "--N-max", "1", "--n-max", "1"]) == 1


def test_cli_main_returns_zero_on_pass():
    assert cli.main(["--out", "/dev/null", "ffqlc", "--q", "2", "--m-max", "1", "--k-max", "1"]) == 0
