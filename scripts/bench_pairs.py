#!/usr/bin/env python3
"""Run one benchmark workload in alternating parent/change pairs and
summarise the pairs.

Usage::

    python3 scripts/bench_pairs.py <parent> <change> --workload W \\
        --seeds 81 82 83 ... --seconds S [--claim METRIC] [--json PATH]

<parent> and <change> are two checkouts of this repository. The script
refuses (exit 2) when their `benchmark/` trees or `BENCHMARK.json` differ,
because the two sides would then not be measured the same way. It then
runs one pair per seed, one process at a time: `python3 benchmark/run.py
--workload W --seed N --seconds S --trace 0` in each checkout, with the
side that goes first swapped from one pair to the next. It prints each
run's metrics as it finishes.

At the end it prints, for each end-to-end metric in BENCHMARK.json, the
median [q1, q3] of each side and the number of pairs the change won; a tie
or a value missing on either side counts for neither side. Quartiles are
numpy's linear percentiles. With `--claim METRIC` it also prints whether
the change won at least nine tenths of all pairs run, and whether the
medians differ in the change's favour by more than the parent's
interquartile range. A gain may be claimed only when both hold.

Every end-to-end metric but the claimed one then gets a regression
verdict against its BENCHMARK.json `bound`, a share of the parent's
median: `regression` when the change's median is worse than the parent's
by more than that share, `unresolved` when the parent's own interquartile
range is wider than it (the runs cannot tell), unless every change run
beats every parent run, and `ok` otherwise. The exit status is 1 when the
claim fails or a metric regresses.

With `--json PATH` it also writes the pairs' record to PATH: the
workload, seeds, seconds and claim, each pair's two result lines (metrics
reduced to their values), each end-to-end metric's median, q1 and q3 per
side with the pairs the change won, the claim's outcome, every
regression verdict, and the printed report.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def benchmark_differences(parent: Path, change: Path) -> list[str]:
    """Paths, relative to the checkouts, of the `benchmark/` files and
    BENCHMARK.json that are missing on either side or differ in bytes."""

    def files(root: Path) -> set[str]:
        return {path.relative_to(root).as_posix() for path in (root / "benchmark").rglob("*")
                if path.is_file() and "__pycache__" not in path.parts}

    names = files(parent) | files(change) | {"BENCHMARK.json"}
    return sorted(name for name in names
                  if not ((parent / name).is_file() and (change / name).is_file()
                          and filecmp.cmp(parent / name, change / name, shallow=False)))


def read_result(stdout: str) -> dict:
    """The result line of one `benchmark/run.py` run, its last line, with
    each metric reduced to its value (None when the run could not take it)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed no result line")
    result = json.loads(lines[-1])
    result["metrics"] = {name: entry["value"] for name, entry in result["metrics"].items()}
    return result


def _sides(values: list[tuple]) -> list[list[float]]:
    """[parent values, change values] of (parent, change) pairs, without
    the Nones of runs that could not take the metric."""
    return [[v for v in side if v is not None] for side in zip(*values)]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q1), float(q3)


def metric_stats(spec: dict, pairs: list[tuple[dict, dict]]) -> dict | None:
    """One end-to-end metric over (parent result, change result) pairs:
    {"parent": (median, q1, q3), "change": (median, q1, q3), "wins": pairs
    the change won, "sides": [parent values, change values]}, or None when
    either side never took it."""
    name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
    values = [(p["metrics"].get(name), c["metrics"].get(name)) for p, c in pairs]
    sides = _sides(values)
    if not all(sides):
        return None
    return {"parent": _quartiles(sides[0]), "change": _quartiles(sides[1]),
            "wins": sum(1 for p, c in values
                        if p is not None and c is not None and sign * (p - c) > 0),
            "sides": sides}


def all_stats(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> dict:
    """metric_stats of each end-to-end metric, by name."""
    return {spec["name"]: metric_stats(spec, pairs) for spec in metrics}


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]], stats: dict,
              claim: str | None = None) -> tuple[list[str], bool | None]:
    """(report lines, whether the claim holds or None without one) over a
    non-empty list of (parent result, change result) pairs and their
    all_stats, for the end-to-end `metrics` of BENCHMARK.json (each with
    `name`, `unit` and `better`)."""
    lines, verdict = [], None
    failed = [sum(result["failed"] for result in side) for side in zip(*pairs)]
    attempted = [sum(result["attempted"] for result in side) for side in zip(*pairs)]
    lines.append(f"pairs {len(pairs)}; failed units: parent {failed[0]}/{attempted[0]}, "
                 f"change {failed[1]}/{attempted[1]}")
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        if stats[name] is None:
            lines.append(f"{name}: not measured on both sides")
            continue
        (med_p, q1_p, q3_p), (med_c, q1_c, q3_c), wins = (stats[name][k] for k in
                                                          ("parent", "change", "wins"))
        lines.append(f"{name} ({spec['unit']}, {spec['better']} is better): "
                     f"parent {med_p:.4g} [{q1_p:.4g}, {q3_p:.4g}]  "
                     f"change {med_c:.4g} [{q1_c:.4g}, {q3_c:.4g}]  "
                     f"change won {wins}/{len(pairs)}")
        if name == claim:
            won = 10 * wins >= 9 * len(pairs)
            gap, iqr = sign * (med_p - med_c), q3_p - q1_p
            verdict = won and gap > iqr
            lines.append(f"claim {name}: won {wins}/{len(pairs)} >= 9/10: "
                         f"{'yes' if won else 'no'}; median gap {gap:.4g} > parent IQR "
                         f"{iqr:.4g}: {'yes' if gap > iqr else 'no'}; "
                         f"{'met' if verdict else 'not met'}")
    if claim is not None and verdict is None:
        lines.append(f"claim {claim}: not measured on both sides; not met")
        verdict = False
    return lines, verdict


def verdicts(metrics: list[dict], stats: dict,
             claim: str | None = None) -> list[tuple[str, str, str]]:
    """(metric, verdict, report line) for each end-to-end metric except
    `claim`, from the pairs' all_stats; each metric spec also carries its
    relative `bound`. The verdict is `ok`, `regression` or `unresolved`."""
    out = []
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        if name == claim:
            continue
        if stats[name] is None:
            out.append((name, "unresolved",
                        f"regression {name}: not measured on both sides; unresolved"))
            continue
        (med_p, q1_p, q3_p), (med_c, _, _), sides = (stats[name][k] for k in
                                                     ("parent", "change", "sides"))
        limit, worse, iqr = spec["bound"] * abs(med_p), sign * med_c - sign * med_p, q3_p - q1_p
        if max(sign * v for v in sides[1]) < min(sign * v for v in sides[0]):
            state = "ok, every change run beats every parent run"
        elif iqr > limit:
            state = "unresolved, the parent's IQR exceeds the limit"
        elif worse > limit:
            state = "regression"
        else:
            state = "ok"
        out.append((name, state.split(",")[0],
                    f"regression {name}: change worse by {worse:.4g}, limit {limit:.4g} "
                    f"({spec['bound']:g} x parent median), parent IQR {iqr:.4g}: {state}"))
    return out


def record(workload: str, seconds: float, seeds: list[int], pairs: list[tuple[dict, dict]],
           stats: dict, claim: str | None, claim_met: bool | None,
           found: list[tuple[str, str, str]], report: list[str]) -> dict:
    """What `--json` writes for the pairs run on `seeds` in turn, from
    their all_stats, summarize's claim outcome, the verdicts and the
    printed report."""
    return {
        "workload": workload, "seconds": seconds, "claim": claim,
        "pairs": [{"seed": seed, "parent": p, "change": c} for seed, (p, c) in zip(seeds, pairs)],
        "metrics": {name: s and {"parent": dict(zip(("median", "q1", "q3"), s["parent"])),
                                 "change": dict(zip(("median", "q1", "q3"), s["change"])),
                                 "change_won": s["wins"]}
                    for name, s in stats.items()},
        "claim_met": claim_met,
        "verdicts": {name: state for name, state, _ in found},
        "report": report,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: benchmark exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return read_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", help="an end-to-end metric the change claims to improve")
    parser.add_argument("--json", type=Path, help="also write the pairs' record here")
    args = parser.parse_args(argv)

    differ = benchmark_differences(args.parent, args.change)
    if differ:
        print(f"error: the checkouts' benchmarks differ: {', '.join(differ)}", file=sys.stderr)
        return 2
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None and args.claim not in {spec["name"] for spec in metrics}:
        print(f"error: {args.claim} is not an end-to-end metric of BENCHMARK.json",
              file=sys.stderr)
        return 2

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            try:
                results[side] = run_once(getattr(args, side), args.workload, seed, args.seconds)
            except (RuntimeError, ValueError) as exc:
                print(f"error: pair {i + 1}, seed {seed}, {side}: {exc}", file=sys.stderr)
                return 2
            shown = " ".join(f"{k}={v}" for k, v in results[side]["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: failed {results[side]['failed']} {shown}",
                  flush=True)
        pairs.append((results["parent"], results["change"]))

    stats = all_stats(metrics, pairs)
    lines, verdict = summarize(metrics, pairs, stats, args.claim)
    found = verdicts(metrics, stats, args.claim)
    report = lines + [line for _, _, line in found]
    print("\n".join(report))
    if args.json is not None:
        out = record(args.workload, args.seconds, args.seeds, pairs, stats, args.claim,
                     verdict, found, report)
        args.json.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    regressed = any(state == "regression" for _, state, _ in found)
    return 1 if verdict is False or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
