#!/usr/bin/env python3
"""Count the page faults and CPU time of one negscope command, run in
fresh processes.

Usage::

    python3 scripts/fault_probe.py <checkout> <runs> -- <negscope args>

Each run is a new Python process that imports negscope from
`<checkout>/src`, reads `getrusage` before and after one
`pipeline.main(<negscope args>)` call, and reports what the call took. The
command runs in the current directory, so relative paths in its arguments
work, and its own output is discarded. BLAS runs on one thread unless the
environment already sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` or
`MKL_NUM_THREADS`.

One JSON line is printed per run, with the command's exit code and

  wall_s     perf_counter time of the call
  minflt     minor page faults during the call
  majflt     major page faults during the call
  utime_s    user CPU time of the call (all threads)
  stime_s    system CPU time of the call (all threads)
  maxrss_mb  the process's peak resident set at the end of the call

and a last line holds the median of each over the runs. The exit status is
1 when any run's command exits non-zero.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

FIELDS = ("wall_s", "minflt", "majflt", "utime_s", "stime_s", "maxrss_mb")

_CHILD = """
import json, resource, sys, time
src, result, args = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
from negscope import pipeline
before = resource.getrusage(resource.RUSAGE_SELF)
t0 = time.perf_counter()
try:
    rc = pipeline.main(args)
except SystemExit as exc:
    rc = exc.code if isinstance(exc.code, int) else 2
wall = time.perf_counter() - t0
after = resource.getrusage(resource.RUSAGE_SELF)
with open(result, "w", encoding="utf-8") as out:
    json.dump({"rc": rc, "wall_s": wall,
               "minflt": after.ru_minflt - before.ru_minflt,
               "majflt": after.ru_majflt - before.ru_majflt,
               "utime_s": after.ru_utime - before.ru_utime,
               "stime_s": after.ru_stime - before.ru_stime,
               "maxrss_mb": after.ru_maxrss / 1024.0}, out)
"""


def probe(src: Path, args: list[str], env: dict) -> dict:
    """One fresh process's measurement of `negscope <args>`."""
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "result.json"
        done = subprocess.run([sys.executable, "-c", _CHILD, str(src), str(result), *args],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if not result.is_file():
            tail = " | ".join(done.stderr.strip().splitlines()[-3:])
            raise RuntimeError(f"probe process exited {done.returncode}: {tail}")
        return json.loads(result.read_text(encoding="utf-8"))


def medians(runs: list[dict]) -> dict:
    return {"runs": len(runs), **{name: float(np.median([r[name] for r in runs]))
                                  for name in FIELDS}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv or argv.index("--") != 2:
        print("usage: fault_probe.py <checkout> <runs> -- <negscope args>", file=sys.stderr)
        return 2
    checkout, count, args = argv[0], argv[1], argv[3:]
    src = Path(checkout).resolve() / "src"
    if not (src / "negscope" / "pipeline.py").is_file():
        print(f"error: no negscope sources under {src}", file=sys.stderr)
        return 2
    if not count.isdigit() or int(count) < 1:
        print(f"error: runs must be a positive integer, got {count!r}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & env.keys():
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = []
    for _ in range(int(count)):
        try:
            runs.append(probe(src, args, env))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(runs[-1]), flush=True)
    print(json.dumps(medians(runs)))
    return int(any(run["rc"] != 0 for run in runs))


if __name__ == "__main__":
    sys.exit(main())
