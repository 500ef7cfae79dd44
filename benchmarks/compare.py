"""Compare two qlverify source trees with this benchmark, in alternating pairs.

    python3 benchmarks/compare.py --base ../parent --head . --workload bredon-random --pairs 10

Both sides run the same benchmark files (this directory) with the same
--seconds; only the measured `src/` differs.  Pair i uses seed i for both
sides, and the side that runs first alternates between pairs, so a slow
stretch of the machine does not always fall on the same side.

For every end-to-end metric it prints each side's median and quartiles,
how many pairs the head won (ties count for neither), and a verdict:

- gain: the head won at least 9/10 of the pairs and the medians differ by
  more than the base's own quartile spread;
- regression: the head's median is worse than the base's by more than the
  bound in BENCHMARK.json;
- unresolved: the base's spread is wider than the bound and the sides
  overlap;
- no change otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(src: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--src", src],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{src} seed {seed}: not correct ({result['failed']}/{result['attempted']} failed)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _spread(values) -> tuple[float, float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, head, better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    b1, bm, b3 = _spread(base)
    hm = statistics.median(head)
    if wins >= 0.9 * len(base) and sign * (bm - hm) > b3 - b1:
        return "gain", wins
    if sign * (hm - bm) > bound * bm:
        return "regression", wins
    overlap = not all(sign * (b - h) > 0 for b in base for h in head)
    if (b3 - b1) > bound * bm and overlap:
        return "unresolved", wins
    return "no change", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="checkout whose src/ is the parent")
    parser.add_argument("--head", required=True, help="checkout whose src/ is the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    sides = {"base": os.path.join(args.base, "src"), "head": os.path.join(args.head, "src")}
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(_run(sides[side], args.workload, i, seconds))
        print(f"pair {i}: " + "  ".join(
            f"{side} wall_s={runs[side][-1]['wall_s']:.4f}" for side in order), flush=True)
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        result, wins = verdict(base, head, metric["better"], metric["bound"])
        b1, bm, b3 = _spread(base)
        h1, hm, h3 = _spread(head)
        print(f"{args.workload} {name}: base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
              f"head {hm:.6g} [{h1:.6g}, {h3:.6g}] {metric['unit']}  "
              f"head won {wins}/{len(base)}  -> {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
