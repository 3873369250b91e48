#!/usr/bin/env python3
"""Compare the `.npz` checkpoints under two workdirs array by array.

Usage::

    python3 scripts/checkpoint_diff.py [--max-rel R] <dirA> <dirB>

For every `.npz` file under dirA (by path relative to it) and its
counterpart under dirB, prints one line per array:

    <relative err>  <path>:<array>

where the relative error is max|a - b| / max|a| (0 when both are zero
everywhere, inf when only a is). Arrays that are not numeric, such as a
checkpoint's `__meta__` JSON string, are compared for equality. The last
line prints the largest relative error seen.

Exits 1, after printing every line it can, if a file is present on one
side only, the two files hold different array names, a pair of arrays
differs in shape or dtype, a non-numeric pair differs, or, with
`--max-rel R`, the largest relative error exceeds R. The workdirs
are typically two runs of `scripts/artifact_digest.py` on different
checkouts, copied aside after each run.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    diff = float(np.abs(a - b).max(initial=0.0))
    scale = float(np.abs(a).max(initial=0.0))
    if diff == 0.0:
        return 0.0
    return diff / scale if scale > 0.0 else float("inf")


def compare(path_a: Path, path_b: Path, label: str) -> tuple[list[str], list[str], float]:
    """(report lines, mismatch messages, worst relative error) for one pair."""
    lines, mismatches, worst = [], [], 0.0
    with np.load(path_a, allow_pickle=False) as za, np.load(path_b, allow_pickle=False) as zb:
        names_a, names_b = set(za.files), set(zb.files)
        for name in sorted(names_a ^ names_b):
            side = "first" if name in names_a else "second"
            mismatches.append(f"{label}:{name}: only in the {side} file")
        for name in sorted(names_a & names_b):
            a, b = za[name], zb[name]
            if a.shape != b.shape or a.dtype != b.dtype:
                mismatches.append(
                    f"{label}:{name}: {a.shape} {a.dtype} vs {b.shape} {b.dtype}"
                )
            elif a.dtype.kind in "fiu":
                err = relative_error(a.astype(np.float64), b.astype(np.float64))
                worst = max(worst, err)
                lines.append(f"{err:.3e}  {label}:{name}")
            elif not np.array_equal(a, b):
                mismatches.append(f"{label}:{name}: values differ")
            else:
                lines.append(f"{0.0:.3e}  {label}:{name}")
    return lines, mismatches, worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-rel", type=float, default=None, metavar="R",
                        help="also exit 1 when the largest relative error exceeds R")
    parser.add_argument("dirs", nargs=2, type=Path, metavar="DIR")
    try:
        args = parser.parse_args(argv)
        if args.max_rel is not None and not args.max_rel >= 0.0:
            parser.error(f"--max-rel must be a number >= 0, got {args.max_rel}")
    except SystemExit as exit_:
        return int(exit_.code or 0)
    dir_a, dir_b = args.dirs
    for directory in (dir_a, dir_b):
        if not directory.is_dir():
            print(f"error: {directory}: not a directory", file=sys.stderr)
            return 2
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*.npz")}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*.npz")}
    mismatches = [f"{rel}: only under {dir_a if rel in files_a else dir_b}"
                  for rel in sorted(files_a ^ files_b)]
    worst = 0.0
    for rel in sorted(files_a & files_b):
        lines, bad, err = compare(dir_a / rel, dir_b / rel, str(rel))
        for line in lines:
            print(line)
        mismatches += bad
        worst = max(worst, err)
    for message in mismatches:
        print(f"MISMATCH {message}")
    print(f"max relative error {worst:.3e} over {len(files_a & files_b)} file pairs")
    if args.max_rel is not None and not worst <= args.max_rel:
        print(f"FAIL max relative error {worst:.3e} exceeds {args.max_rel:.3e}")
        return 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
