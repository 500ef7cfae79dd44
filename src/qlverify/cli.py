"""Batch driver: run verification suites over parameter matrices and emit
deterministic TSV or JSON reports.

Exit codes: 0 when nothing failed, 1 when any check failed, 2 on usage
errors: bad flags or specs (unknown spec keys, a --max-field-size below 1),
an --out file that cannot be opened, which is checked before any
computation, and a parameter matrix that checks nothing, that is one that
yields no PASS and no FAIL record (no records at all, or only SKIP and
PREDICTION records).  Running out of memory and a report that cannot be
written (a full disk) also exit 2.  Output is byte-identical across runs
with the same flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .curves import DEFAULT_MAX_FIELD_SIZE, KummerCover, verify_l_identities
from .dirichlet import (
    predict_k_ratio,
    real_cyclic_fields,
    verify_norm_identity_numberfield,
    verify_order_identity,
)
from .ffqlc import (
    CyclicCharacter,
    InducedRepFF,
    case_label,
    verify_induced_ff,
    verify_main_theorem_ff,
)
from .numtheory import prime_power_decomposition
from .report import FAIL, PASS, SKIP, VerificationReport


def run_ffqlc(q_list, m_max: int, k_max: int) -> VerificationReport:
    """verify_main_theorem_ff over all (q, m <= m_max, characters of C_m,
    k <= k_max), plus a small deterministic sample of induced sums.

    Every path of verify_main_theorem_ff reads a character only through its
    primitive character (m', a'), so each (q, m', a', k) is verified once
    per run, and the lifts of (m', a') to larger m copy its records under
    their own case label."""
    report = VerificationReport()
    primitive_fields = {}  # (q, m', a', k) -> (quantity, path, value, status) of each record
    for q in q_list:
        for m in range(1, m_max + 1):
            for a in range(m):
                chi = CyclicCharacter(m, a)
                prim = chi.primitivize()
                for k in range(1, k_max + 1):
                    key = (q, prim.m, prim.a, k)
                    fields = primitive_fields.get(key)
                    if fields is None:
                        fields = primitive_fields[key] = [
                            (r.quantity, r.path, r.value, r.status)
                            for r in verify_main_theorem_ff(q, prim, k).records
                        ]
                    case = case_label(q, chi, k)
                    for record in fields:
                        report.add(case, *record)
    for q in q_list:
        samples = []
        if m_max >= 4:
            samples.append(InducedRepFF(4, ((1, 0, 1), (2, 1, 1), (4, 1, 1))))
        if m_max >= 6:
            samples.append(InducedRepFF(6, ((2, 1, 1), (3, 1, 2), (6, 1, 1))))
        for rep in samples:
            for k in range(1, min(k_max, 2) + 1):
                report.extend(verify_induced_ff(q, rep, k))
    return report


def run_curves(specs, order=None, max_field_size=DEFAULT_MAX_FIELD_SIZE) -> VerificationReport:
    """verify_l_identities for every cover spec {"p": int, "d": int, "f": [int, ...]}."""
    report = VerificationReport()
    for spec in specs:
        cover = KummerCover(spec["p"], spec["d"], tuple(spec["f"]))
        report.extend(verify_l_identities(cover, order, max_field_size))
    return report


DEFAULT_COVERS = (
    {"p": 3, "d": 2, "f": [0, 1]},
    {"p": 5, "d": 4, "f": [0, 1]},
    {"p": 7, "d": 3, "f": [1, 1]},
)


def run_dirichlet(n_max: int, order_max: int, fields=()) -> VerificationReport:
    """Norm and order identities over all (N <= n_max, kernels of the even
    characters mod N: the totally real cyclic fields), plus the rational
    predictions for every field in the matrix.  Explicit field specs
    {"modulus": N, "subgroup": [...]} are run in addition to the matrix."""
    report = VerificationReport()
    matrix = [(N, H) for N in range(1, n_max + 1) for H in real_cyclic_fields(N)]
    matrix.extend((spec["modulus"], frozenset(spec["subgroup"])) for spec in fields)
    for N, H in matrix:
        for n in range(1, order_max + 1):
            report.extend(verify_norm_identity_numberfield(N, H, n))
        for k in range(2, 2 * order_max + 2):
            report.extend(verify_order_identity(N, H, k))
        _, pred = predict_k_ratio(N, H, 1)
        report.extend(pred)
    return report


def _parse_q_list(text: str) -> list[int]:
    out = []
    for piece in text.split(","):
        q = int(piece)
        prime_power_decomposition(q)  # raises ValueError on bad input
        out.append(q)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlverify",
        description="exact cross-checks of L-value / K-group identities",
    )
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ff = sub.add_parser("ffqlc", help="finite-field main-theorem matrix")
    p_ff.add_argument("--q", default="2", help="comma-separated prime powers")
    p_ff.add_argument("--m-max", type=int, default=6)
    p_ff.add_argument("--k-max", type=int, default=3)

    p_curves = sub.add_parser("curves", help="Kummer-cover L-series identities")
    p_curves.add_argument("--spec", action="append", default=None,
                          help='inline JSON like {"p":3,"d":2,"f":[0,1]} or a path to a JSON list')
    p_curves.add_argument("--order", type=int, default=None,
                          help="series truncation order (default 2*(deg f + 3))")
    p_curves.add_argument("--max-field-size", type=int, default=DEFAULT_MAX_FIELD_SIZE)

    p_dir = sub.add_parser("dirichlet", help="abelian number-field identities")
    p_dir.add_argument("--N-max", type=int, default=12)
    p_dir.add_argument("--n-max", type=int, default=2)
    p_dir.add_argument("--field", action="append", default=[],
                       help='extra field spec like {"modulus":5,"subgroup":[1,4]}')
    return parser


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(c) for c in x)


def _cover_spec(spec) -> dict:
    if not (isinstance(spec, dict) and spec.keys() == {"p", "d", "f"} and _is_int(spec["p"])
            and _is_int(spec["d"]) and _is_int_list(spec["f"])):
        raise ValueError(f'cover spec must look like {{"p": 3, "d": 2, "f": [0, 1]}}, got {spec!r}')
    return spec


def _field_spec(spec) -> dict:
    if not (isinstance(spec, dict) and spec.keys() == {"modulus", "subgroup"}
            and _is_int(spec["modulus"]) and spec["modulus"] >= 1 and _is_int_list(spec["subgroup"])):
        raise ValueError(
            f'field spec must look like {{"modulus": 5, "subgroup": [1, 4]}} with modulus >= 1, got {spec!r}'
        )
    return spec


def _json_arg(flag: str, text: str, from_file: bool = False):
    """The JSON in text, or in the file it names; a parse error names the
    flag and its argument, since a run may pass several of them."""
    try:
        if from_file:
            with open(text) as fh:
                return json.load(fh)
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {type(exc).__name__}: {exc}") from None


def _load_cover_specs(args) -> list[dict]:
    if not args.spec:
        return [dict(s) for s in DEFAULT_COVERS]
    specs = []
    for text in args.spec:
        inline = text.strip().startswith(("{", "["))
        loaded = _json_arg("--spec", text, from_file=not inline)
        specs.extend(loaded if isinstance(loaded, list) else [loaded])
    return [_cover_spec(spec) for spec in specs]


def _report(parser, args) -> VerificationReport:
    """The chosen suite's report; usage errors and running out of memory exit 2."""
    try:
        if args.command == "ffqlc":
            report = run_ffqlc(_parse_q_list(args.q), args.m_max, args.k_max)
        elif args.command == "curves":
            if args.max_field_size < 1:
                raise ValueError(f"--max-field-size must be >= 1, got {args.max_field_size}")
            report = run_curves(_load_cover_specs(args), args.order, args.max_field_size)
        else:
            fields = [_field_spec(_json_arg("--field", text)) for text in args.field]
            report = run_dirichlet(args.N_max, args.n_max, fields)
    except (ValueError, OSError, KeyError) as exc:
        parser.exit(2, f"usage error: {type(exc).__name__}: {exc}\n")
    except MemoryError:
        parser.exit(2, "usage error: out of memory; a smaller --max-field-size bounds the curve tables\n")
    counts = report.counts()
    if not counts[PASS] and not counts[FAIL]:
        parser.exit(2, f"usage error: the parameter matrix yields no checks "
                       f"(no PASS or FAIL record, SKIP={counts[SKIP]})\n")
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.exit(2, f"usage error: cannot open --out: {exc}\n")
    try:
        with out as fh:
            report = _report(parser, args)
            fh.write(report.to_json() if args.format == "json" else report.to_tsv())
            fh.flush()
    except OSError as exc:
        parser.exit(2, f"error: cannot write the report: {exc}\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
