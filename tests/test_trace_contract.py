"""The benchmark tracer wraps negscope functions by name and reads their
arguments and results by position. A traced training step and a traced
prediction must find every target, run every hook without error, close
every span it opens, count LSTM multiply-adds over real tokens only, and
make one CRF call per training batch.
The BiLSTM runs its right-to-left direction on a worker thread, so the
tracer's span stack is pushed and popped from two threads."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from negscope.models import Tagger, TaggerConfig
from negscope.training import instance_loss_grads

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
VOCAB, EMBED, UNITS = 9, 5, 4


def load_tracer():
    spec = importlib.util.spec_from_file_location("negscope_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lstm_macs(rows: int, inputs: int, backward: bool) -> int:
    """The tracer's per-call formula: recurrent plus input-side products
    forward; backward doubles both for the weight gradients."""
    if backward:
        return rows * 4 * UNITS * (2 * UNITS + 2 * inputs * EMBED)
    return rows * 4 * UNITS * (UNITS + inputs * EMBED)


@pytest.fixture
def tracer():
    module = load_tracer()
    active = module.Tracer()
    active.install()
    try:
        yield active
    finally:
        active.uninstall()


def test_traced_train_step_and_prediction_count_real_rows(tracer):
    rng = np.random.default_rng(3)
    scope = Tagger.build(TaggerConfig("scope", "bilstm-crf", VOCAB, EMBED, UNITS), rng)
    cue = Tagger.build(TaggerConfig("cue", "bilstm", VOCAB, EMBED, UNITS), rng)
    train_lengths = [6, 2, 4]
    ids = [rng.integers(VOCAB, size=n) for n in train_lengths]
    gold = [rng.integers(scope.config.num_labels, size=n) for n in train_lengths]
    bits = [rng.integers(2, size=n) for n in train_lengths]
    instance_loss_grads(scope, ids, gold, bits)
    predict_lengths = [1, 7, 3, 3]
    cue.predict_tags([rng.integers(VOCAB, size=n) for n in predict_lengths])

    assert tracer.stack == []
    assert all(span is not None and span[1] <= span[2] for span in tracer.spans)
    metrics = tracer.summary()
    assert tracer.absent == []
    assert tracer.hook_errors == {}
    assert metrics["trace.absent"] == 0
    assert metrics["layers.lstm_forward.calls"] == 4
    assert metrics["layers.lstm_backward.calls"] == 2
    train_rows, predict_rows = sum(train_lengths), sum(predict_lengths)
    # a padded batch would have run max(lengths) x count rows per direction
    assert train_rows < max(train_lengths) * len(train_lengths)
    assert predict_rows < max(predict_lengths) * len(predict_lengths)
    expected = 2 * (
        lstm_macs(train_rows, 2, backward=False)
        + lstm_macs(train_rows, 2, backward=True)
        + lstm_macs(predict_rows, 1, backward=False)
    )
    assert metrics["layers.lstm.macs"] == expected
    # the CRF head takes the whole batch in one packed call; crf_nll_grads
    # calls crf_marginals, whose two lattices span the 4 scope labels of
    # every column, with emissions found at index 0
    assert metrics["layers.crf_nll_grads.calls"] == 1
    assert metrics["layers.crf_marginals.calls"] == 1
    assert metrics["layers.crf.lattice_cells"] == 2 * 4 * train_rows
