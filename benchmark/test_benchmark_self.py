"""Self-tests of the benchmark's generator, checker and tracer.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_benchmark_self.py
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402


def test_same_seed_gives_byte_identical_inputs():
    for shape in (inputs.EXPERIMENT, inputs.RAGGED):
        a = inputs.generate(shape, 5, "x")
        b = inputs.generate(shape, 5, "x")
        assert inputs.format_blocks(a) == inputs.format_blocks(b)
        assert inputs.embedding_lines(a, 8, 5) == inputs.embedding_lines(b, 8, 5)
        assert inputs.format_blocks(a) != inputs.format_blocks(inputs.generate(shape, 6, "x"))


def test_generated_corpus_parses_as_gold(tmp_path):
    corpus = pytest.importorskip("negscope.corpus")
    blocks = inputs.generate(inputs.EXPERIMENT, 3, "x")
    inputs.write(tmp_path / "c.col", blocks)
    parsed = corpus.parse_column_file(tmp_path / "c.col")
    assert [i.cue_tags() for i in parsed] == [list(b[2]) for b in blocks]
    shape = inputs.describe(blocks)
    assert shape["instances"] == inputs.EXPERIMENT.sentences
    assert abs(shape["negation_frac"] - inputs.EXPERIMENT.negation_frac) < 0.01


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 counts once
        ("a.child", 2.0, 3.5, 1),
        ("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    got = tracer.self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got[1] == pytest.approx(3.0 - 1.5)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.5)
    assert got[4] == pytest.approx(3.0)
    assert tracer.covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 0.0, 3.5) == pytest.approx(2.5)


def _prediction(tmp_path, blocks):
    path = tmp_path / "pred.col"
    inputs.write(path, blocks)
    return checks.read_blocks(path)


def test_checker_rejects_a_dropped_sentence_and_a_bad_tag(tmp_path):
    blocks = inputs.generate(inputs.RAGGED, 1, "r")[:20]
    reference = {b[0]: (tuple(b[1]), tuple(b[2]), tuple(b[3])) for b in blocks}
    ids = [b[0] for b in blocks]

    clean = checks.FileCheck("pred", ids)
    checks.check_blocks(clean, _prediction(tmp_path, blocks), reference, scope=True)
    assert not clean.failed and not clean.problems

    dropped = checks.FileCheck("pred", ids)
    checks.check_blocks(dropped, _prediction(tmp_path, blocks[:5] + blocks[6:]), reference, True)
    assert dropped.failed == {ids[5]}

    bad = list(blocks)
    sid, tokens, ctags, stags = bad[3]
    bad[3] = (sid, tokens, ("XX",) + tuple(ctags[1:]), stags)
    tagged = checks.FileCheck("pred", ids)
    checks.check_blocks(tagged, _prediction(tmp_path, bad), reference, scope=True)
    assert tagged.failed == {ids[3]}

    swapped = checks.FileCheck("pred", ids)
    checks.check_blocks(swapped, _prediction(tmp_path, [blocks[1], blocks[0]] + blocks[2:]),
                        reference, scope=True)
    assert swapped.failed == set(ids)


def test_report_counts_must_match_the_benchmark():
    golds = [("NC", "C", "NC"), ("MC", "MC", "NC")]
    preds = [("NC", "C", "C"), ("NC", "MC", "NC")]
    right = checks.FileCheck("r", ["a", "b"])
    f1 = checks.check_report(right, "cue.tp=2\ncue.fp=1\ncue.fn=1\n", preds, golds, "cue",
                             checks.CUE_POSITIVE)
    assert f1 == pytest.approx(200 * 2 / 6) and not right.failed
    wrong = checks.FileCheck("r", ["a", "b"])
    checks.check_report(wrong, "cue.tp=3\ncue.fp=1\ncue.fn=1\n", preds, golds, "cue",
                        checks.CUE_POSITIVE)
    assert wrong.failed == {"a", "b"}


def test_missing_wrapped_name_is_reported_not_raised(monkeypatch):
    labeling = pytest.importorskip("negscope.labeling")
    original = labeling.postprocess
    targets = dict(tracer.TARGETS)
    targets["layers"] = targets["layers"] + ("no_such_layer",)
    targets["models"] = targets["models"] + ("Tagger.no_such_method", "NoSuchClass.method")
    targets["no_such_module"] = ("anything",)
    monkeypatch.setattr(tracer, "TARGETS", targets)
    trace = tracer.Tracer()
    trace.install()
    try:
        labeling.postprocess(["O", "O"], [0, 1])
    finally:
        trace.uninstall()
    assert labeling.postprocess is original
    assert set(trace.absent) == {"layers.no_such_layer", "models.Tagger.no_such_method",
                                 "models.NoSuchClass.method", "no_such_module.anything"}
    metrics = trace.summary()
    assert metrics["labeling.postprocess.calls"] == 1
    assert metrics["trace.absent"] == 4
