"""The exit-code contract of the command line under drawn argument lists,
by hypothesis: every run exits 0, 1 or 2 and no exception escapes as a
traceback.  The grammar keeps every matrix tiny (m, N and the field-size
budget are small), so no draw builds a large table or many cases."""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qlverify import cli  # noqa: E402

SMALL_INT = st.integers(-2, 3).map(str)

COVER_SPECS = st.sampled_from([
    '{"p":3,"d":2,"f":[0,1]}',
    '{"p":3,"d":2,"f":[1,1]}',
    '{"p":5,"d":4,"f":[1,0,1]}',
    '{"p":4,"d":3,"f":[1,1]}',
    '{"p":3,"d":3,"f":[0,1]}',
    '{"p":3,"d":2,"f":[]}',
    '{"p":3,"d":2,"f":[1,1],"x":1}',
    '{"p":"3","d":2,"f":[0,1]}',
    '[{"p":3,"d":2,"f":[0,1]}]',
    '[1,2]',
    '{"p":3',
    "missing-spec-file.json",
])

FIELD_SPECS = st.sampled_from([
    '{"modulus":5,"subgroup":[1,4]}',
    '{"modulus":5,"subgroup":[1]}',
    '{"modulus":7,"subgroup":[1,2,4]}',
    '{"modulus":24,"subgroup":[1,23]}',
    '{"modulus":5,"subgroup":[1,2]}',
    '{"modulus":5,"subgroup":[1,9]}',
    '{"modulus":1,"subgroup":[0]}',
    '{"modulus":0,"subgroup":[0]}',
    '{"modulus":5,"subgroup":[1,4],"x":1}',
    '{"modulus":5}',
    "[]",
    "not json",
])


def _options(draw, pairs):
    """Each (flag, strategy) pair is present or not, in the given order."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@st.composite
def argv_lists(draw):
    argv = _options(draw, [("--format", st.sampled_from(["tsv", "json", "xml"])),
                           ("--out", st.sampled_from(["REPORT", "MISSING_DIR"]))])
    command = draw(st.sampled_from(["ffqlc", "curves", "dirichlet", "nonsense"]))
    argv.append(command)
    if command == "ffqlc":
        argv += _options(draw, [("--q", st.sampled_from(["2", "3", "4", "2,3", "6", "1", "x", "-9", "4,-9"])),
                                ("--m-max", SMALL_INT), ("--k-max", SMALL_INT)])
    elif command == "curves":
        argv += _options(draw, [("--spec", COVER_SPECS),
                                ("--order", st.integers(-1, 6).map(str))])
        # always bounded: the default budget would allow 7^8-element tables
        argv += ["--max-field-size", draw(st.sampled_from(["-5", "0", "1", "30", "800"]))]
    elif command == "dirichlet":
        argv += _options(draw, [("--N-max", st.integers(-1, 6).map(str)),
                                ("--n-max", st.integers(-1, 2).map(str)),
                                ("--field", FIELD_SPECS)])
    return argv


@settings(max_examples=60, deadline=None)
@given(argv_lists())
def test_cli_exit_codes_and_no_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"REPORT": os.path.join(tmp, "report"),
                 "MISSING_DIR": os.path.join(tmp, "missing", "report")}
        argv = [paths.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
