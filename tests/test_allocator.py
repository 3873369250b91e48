"""The command line's allocator policy, and scripts/fault_probe.py.

`pipeline.main` makes glibc keep freed memory in the heap, so arrays freed
by one minibatch are reused by the next without new page faults; importing
the package must leave the allocator as it was. Both run in fresh
processes, since the policy lasts for the life of a process."""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from negscope.corpus import write_column_file
from helpers import synthetic_instances

_REPO = Path(__file__).resolve().parent.parent
_PROBE = _REPO / "scripts" / "fault_probe.py"
PAGES_PER_ROUND = 16 * (1 << 20) // resource.getpagesize()

# sixteen touched 1 MB arrays, dropped together, once to warm the heap and
# then 20 times while the process's minor faults are counted
_ROUNDS = """
import resource, sys
import numpy as np
from negscope import pipeline
if sys.argv[1] == "main":
    assert pipeline.main(["evaluate", sys.argv[2], sys.argv[2]]) == 0
def one_round():
    arrays = [np.ones(1 << 17) for _ in range(16)]
    del arrays
one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.fixture
def column_file(tmp_path) -> Path:
    path = tmp_path / "gold.col"
    write_column_file(path, synthetic_instances(6, seed=8))
    return path


def _round_faults(mode: str, column_file: Path) -> int:
    done = subprocess.run([sys.executable, "-c", _ROUNDS, mode, str(column_file)],
                          env=dict(os.environ, PYTHONPATH=str(_REPO / "src")),
                          capture_output=True, text=True, check=True)
    return int(done.stdout.splitlines()[-1])


@pytest.mark.skipif(not _glibc(), reason="the allocator policy applies to glibc only")
def test_main_keeps_freed_arrays_in_the_heap_and_an_import_does_not(column_file):
    after_main = _round_faults("main", column_file)
    after_import = _round_faults("import", column_file)
    assert after_main < PAGES_PER_ROUND, (after_main, after_import)
    assert after_import >= max(10 * after_main, PAGES_PER_ROUND), (after_main, after_import)


def test_fault_probe_prints_one_line_per_run_and_their_medians(column_file, tmp_path):
    done = subprocess.run(
        [sys.executable, str(_PROBE), str(_REPO), "2", "--", "evaluate", str(column_file),
         str(column_file), "--out", str(tmp_path / "report.txt")],
        capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(lines) == 3
    fields = ["wall_s", "minflt", "majflt", "utime_s", "stime_s", "maxrss_mb"]
    for run in lines[:2]:
        assert run["rc"] == 0
        assert all(run[name] >= 0 for name in fields)
        assert run["wall_s"] > 0 and run["maxrss_mb"] > 0
    assert lines[2] == {"runs": 2, **{name: lines[2][name] for name in fields}}
    assert lines[2]["minflt"] == (lines[0]["minflt"] + lines[1]["minflt"]) / 2
    assert (tmp_path / "report.txt").read_text().startswith("instances=6\n")


def test_fault_probe_fails_when_the_command_fails(tmp_path):
    done = subprocess.run(
        [sys.executable, str(_PROBE), str(_REPO), "1", "--", "evaluate",
         str(tmp_path / "missing.col"), str(tmp_path / "missing.col")],
        capture_output=True, text=True)
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[0])["rc"] == 1


def test_fault_probe_rejects_a_checkout_without_sources(tmp_path):
    done = subprocess.run([sys.executable, str(_PROBE), str(tmp_path), "1", "--", "evaluate"],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert "no negscope sources" in done.stderr
