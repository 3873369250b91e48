"""scripts/checkpoint_diff.py on checkpoints written here: per-array
relative errors, and exit 1 on a missing file, a missing array, a shape
change, a changed metadata string, or a worst error above --max-rel."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "checkpoint_diff.py"


def _script():
    spec = importlib.util.spec_from_file_location("checkpoint_diff", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, **arrays) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, __meta__=np.array('{"format": 2}'), **arrays)


def test_reports_each_array_relative_to_its_largest_magnitude(tmp_path, capsys):
    w = np.array([[2.0, -4.0], [1.0, 0.5]])
    _write(tmp_path / "a" / "run" / "m.npz", w=w, b=np.zeros(3))
    _write(tmp_path / "b" / "run" / "m.npz", w=w + [[0.0, 0.0], [1e-12, 0.0]], b=np.zeros(3))
    assert _script().main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "2.500e-13  run/m.npz:w" in out
    assert "0.000e+00  run/m.npz:b" in out
    assert "0.000e+00  run/m.npz:__meta__" in out
    assert out[-1] == "max relative error 2.500e-13 over 1 file pairs"


def test_mismatches_exit_one(tmp_path, capsys):
    _write(tmp_path / "a" / "m.npz", w=np.ones(2), v=np.ones(1))
    _write(tmp_path / "b" / "m.npz", w=np.ones(3))
    _write(tmp_path / "a" / "only.npz", w=np.ones(1))
    script = _script()
    assert script.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH m.npz:v: only in the first file" in out
    assert "MISMATCH m.npz:w: (2,) float64 vs (3,) float64" in out
    assert "MISMATCH only.npz: only under" in out

    np.savez(tmp_path / "b" / "m.npz", __meta__=np.array('{"format": 1}'),
             w=np.ones(2), v=np.ones(1))
    (tmp_path / "a" / "only.npz").unlink()
    assert script.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "MISMATCH m.npz:__meta__: values differ" in capsys.readouterr().out


def test_max_rel_gates_the_worst_relative_error(tmp_path, capsys):
    w = np.array([[2.0, -4.0], [1.0, 0.5]])
    _write(tmp_path / "a" / "m.npz", w=w)
    _write(tmp_path / "b" / "m.npz", w=w + [[0.0, 0.0], [1e-12, 0.0]])
    script = _script()
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    assert script.main(["--max-rel", "3e-13", *dirs]) == 0
    assert script.main(["--max-rel", "1e-13", *dirs]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "FAIL max relative error 2.500e-13 exceeds 1.000e-13"
    assert script.main(dirs) == 0
    assert script.main(["--max-rel", "-1", *dirs]) == 2
    assert script.main(["--max-rel", "nan", *dirs]) == 2
