import json
import subprocess
import sys

import pytest

from qlverify import cli
from qlverify.report import FAIL, PASS, Record, VerificationReport, fmt_rational
from fractions import Fraction


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


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qlverify.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,  # a hang fails the test instead of stalling the suite
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


def test_cli_usage_error_exit_2(tmp_path):
    code, _, err = run_cli(["ffqlc", "--q", "6"])
    assert code == 2
    assert "usage error" in err
    code, _, _ = run_cli(["nonsense"])
    assert code == 2
    for bad in (
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
        code, out, err = run_cli(bad)
        assert code == 2
        assert "usage error" in err and "Traceback" not in err and out == ""
    assert not (tmp_path / "missing").exists()
    missing_spec = str(tmp_path / "nosuch.json")
    code, out, err = run_cli(["curves", "--spec", missing_spec])
    assert (code, out) == (2, "")
    assert "usage error" in err and missing_spec in err and "Traceback" not in err
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text("not json")
    for bad, name in (
        (["curves", "--spec", str(bad_spec)], str(bad_spec)),
        (["curves", "--spec", '{"p": 3,'], '{"p": 3,'),
        (["dirichlet", "--field", "not json"], "not json"),
    ):
        code, out, err = run_cli(bad)
        assert (code, out) == (2, "")
        assert "usage error" in err and name in err and "Traceback" not in err


def test_cli_skip_only_run_counts_its_skips(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["curves", "--spec", '{"p":3,"d":2,"f":[1,1]}', "--order", "50"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "no PASS or FAIL record, SKIP=1" in captured.err


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
