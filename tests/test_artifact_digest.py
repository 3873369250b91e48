"""scripts/artifact_digest.py, the byte-for-byte refactor check: it runs
every command to exit code 0, and two runs in the same workdir print the
same digests."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SCRIPT = _REPO / "scripts" / "artifact_digest.py"


def _digest(work: Path) -> str:
    done = subprocess.run([sys.executable, str(_SCRIPT), str(_REPO), str(work)],
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_every_command_succeeds_and_a_rerun_digests_the_same(tmp_path):
    work = tmp_path / "digest"
    first = _digest(work)
    headers = re.findall(r"^command (\d+): (.*)$", first, flags=re.MULTILINE)
    assert headers[0] == ("0", "inputs")
    assert [int(n) for n, _ in headers] == list(range(len(headers)))
    assert len(headers) > 1
    for number, rest in headers[1:]:
        assert rest.endswith(" rc=0"), f"command {number}: {rest}"
    assert _digest(work) == first
