"""Acceptance gate: every shipping criterion, one test (and one printed
PASS/FAIL line) per criterion, each at its stated tolerance and time budget.

Criterion 8's corpus-statistics half needs the licensed abstracts corpus as
a 3-column file; point NEGSCOPE_BIOSCOPE_ABSTRACTS at it to enable that
check, otherwise the harness part alone is verified.
"""
from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from negscope.corpus import (
    build_vocab,
    corpus_stats,
    encode_instances,
    parse_column_file,
    write_column_file,
)
from negscope.evaluation import evaluate_cue, evaluate_scope
from negscope.labeling import postprocess
from negscope.layers import (
    CrfParams,
    LstmParams,
    bilstm_forward,
    crf_marginals,
    crf_viterbi,
    init_lstm,
    lstm_forward,
)
from negscope.models import Tagger, TaggerConfig
from negscope.pipeline import main
from negscope.training import TrainConfig, batch_inputs, instance_loss_grads, train
from helpers import (
    brute_best_path,
    brute_log_partition,
    densify,
    finite_diff_grad,
    is_continuous,
    rel_err,
    synthetic_instances,
    valid_gold_pattern,
)


@contextmanager
def criterion(name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - start:.1f}s)")


def test_c1_crf_matches_brute_force_enumeration():
    with criterion("1 CRF enumeration"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for case in range(200):
            num_labels = int(rng.integers(3, 5))
            n = int(rng.integers(1, 7))
            emissions = rng.normal(size=(num_labels, n))
            trans = rng.normal(size=(num_labels + 2, num_labels + 2))
            if case % 4 == 0:
                # integer scores force score ties, exercising the tie rule
                emissions = np.round(emissions)
                trans = np.round(trans)
            crf = CrfParams(trans)

            _, _, (log_z,) = crf_marginals(emissions, crf, [n])
            expected = brute_log_partition(emissions, trans, crf.start, crf.end)
            assert abs(log_z - expected) <= 1e-9, f"case {case}: logZ off"

            (labels,), _ = crf_viterbi(emissions, crf, [n])
            best, _ = brute_best_path(emissions, trans, crf.start, crf.end)
            assert labels == best, f"case {case}: viterbi path differs"
        assert time.monotonic() - start < 10.0


def test_c2_analytic_gradients_match_finite_differences():
    with criterion("2 gradient fidelity"):
        start = time.monotonic()
        rng = np.random.default_rng(202)
        good = total = 0
        worst = 0.0
        for case in range(20):
            task = "cue" if case % 2 == 0 else "scope"
            head_crf = (case // 2) % 2 == 1
            embed_dim = int(rng.integers(1, 4))
            units = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            vocab_size = 5
            cfg = TaggerConfig(task, "bilstm-crf" if head_crf else "bilstm",
                               vocab_size, embed_dim, units, widen_embeddings=True)
            tagger = Tagger.build(cfg, np.random.default_rng(int(rng.integers(1 << 30))))
            if tagger.crf is not None:
                tagger.crf.trans[:] = 0.5 * rng.normal(size=tagger.crf.trans.shape)

            ids = rng.integers(vocab_size, size=n)
            gold = rng.integers(cfg.num_labels, size=n)
            bits = [rng.integers(2, size=n)] if task == "scope" else None
            _, _, grads = instance_loss_grads(tagger, [ids], [gold], bits)

            for name, arr in tagger.trainable_parameters().items():
                original = arr.copy()

                def objective(value, _arr=arr):
                    _arr[:] = value
                    loss, _, _ = instance_loss_grads(tagger, [ids], [gold], bits)
                    return loss

                try:
                    numeric = finite_diff_grad(objective, original)
                finally:
                    arr[:] = original
                err = rel_err(numeric, densify(grads[name], arr.shape))
                good += int((err <= 1e-4).sum())
                total += err.size
                if err.size:
                    worst = max(worst, float(err.max()))

        assert total > 0
        fraction = good / total
        assert fraction >= 0.99, f"only {fraction:.4%} of {total} coords ok, worst {worst:.2e}"
        assert time.monotonic() - start < 60.0


def test_c3_two_input_cell_with_zero_aux_reduces_to_single_input():
    with criterion("3 two-input reduction"):
        rng = np.random.default_rng(303)
        for case in range(100):
            units = int(rng.integers(1, 5))
            in_dim = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8))
            two = init_lstm(units, in_dim, rng, two_input=True)
            single = LstmParams(two.w_in, two.w_rec, two.b, None)
            if case % 2 == 0:
                # one packed batch of n steps, one direction
                sizes = np.sort(rng.integers(1, 4, size=n))[::-1]
                inputs = rng.normal(size=(int(sizes.sum()), in_dim))
                rows = np.arange(len(inputs))
                with_aux, _ = lstm_forward(two, inputs, np.zeros(len(inputs)), sizes, rows)
                without, _ = lstm_forward(single, inputs, None, sizes, rows)
            else:
                # both directions over a ragged packed batch
                lengths = rng.integers(1, 8, size=int(rng.integers(1, 4)))
                inputs = rng.normal(size=(int(lengths.sum()), in_dim))
                with_aux, _ = bilstm_forward(two, two, inputs, np.zeros(len(inputs)), lengths)
                without, _ = bilstm_forward(single, single, inputs, None, lengths)
            assert np.abs(with_aux - without).max() <= 1e-12


def _token_accuracy(tagger, data) -> float:
    ids, golds, bits = batch_inputs(tagger, data)
    hits = total = 0
    for pred, gold in zip(tagger.predict_ids(ids, bits), golds):
        hits += sum(1 for p, g in zip(pred, gold) if p == g)
        total += len(gold)
    return 100.0 * hits / total


def test_c4_both_taggers_overfit_a_tiny_corpus():
    with criterion("4 overfit smoke"):
        start = time.monotonic()
        instances = synthetic_instances(20, seed=9)
        vocab = build_vocab(instances)
        assert vocab.size <= 41  # at most 40 token types plus the unknown slot
        data = encode_instances(instances, vocab, 20)
        config = TrainConfig(
            epochs=200, batch_size=2, lr0=0.001, decay_every=0,
            early_stopping=False, seed=11,
        )

        cue_tagger = Tagger.build(
            TaggerConfig("cue", "bilstm", vocab.size, 24, 24), np.random.default_rng(12)
        )
        train(cue_tagger, data, [], config)
        cue_acc = _token_accuracy(cue_tagger, data)

        scope_data = [inst for inst in data if inst.is_negation]
        scope_tagger = Tagger.build(
            TaggerConfig("scope", "bilstm-crf", vocab.size, 24, 24), np.random.default_rng(13)
        )
        train(scope_tagger, scope_data, [], config)
        scope_acc = _token_accuracy(scope_tagger, scope_data)

        assert cue_acc == 100.0, f"cue tagger stuck at {cue_acc:.2f}%"
        assert scope_acc == 100.0, f"scope tagger stuck at {scope_acc:.2f}%"
        assert time.monotonic() - start < 300.0


def test_c5_metric_fixtures_match_hand_computed_values():
    # the running example: "It had no effect on IL-10 secretion ."
    cue_gold = ["NC", "NC", "C", "NC", "NC", "NC", "NC", "NC"]
    scope_gold = ["O", "O", "C", "A", "A", "A", "A", "O"]
    with criterion("5 metric fixtures"):
        # perfect prediction
        cue = evaluate_cue([cue_gold], [cue_gold])
        scope = evaluate_scope([scope_gold], [scope_gold])
        assert cue.token.precision == cue.token.recall == cue.token.f1 == 100.0
        assert cue.pecm == 100.0
        assert scope.token.f1 == 100.0 and scope.pcs == 100.0 and scope.pcp == 100.0

        # nothing predicted: precision has no denominator
        cue = evaluate_cue([["NC"] * 8], [cue_gold])
        scope = evaluate_scope([["O"] * 8], [scope_gold])
        assert math.isnan(cue.token.precision) and cue.token.recall == 0.0
        assert math.isnan(cue.token.f1) and cue.pecm == 0.0
        assert math.isnan(scope.token.precision) and scope.token.recall == 0.0
        assert math.isnan(scope.token.f1)
        assert scope.pcs == 0.0 and math.isnan(scope.pcp)

        # cue one position off, scope shifted right by one
        cue = evaluate_cue([["NC", "NC", "NC", "C", "NC", "NC", "NC", "NC"]], [cue_gold])
        scope = evaluate_scope([["O", "O", "O", "C", "A", "A", "A", "A"]], [scope_gold])
        assert (cue.token.tp, cue.token.fp, cue.token.fn) == (0, 1, 1)
        assert cue.token.precision == 0.0 and cue.token.recall == 0.0
        assert cue.token.f1 == 0.0 and cue.pecm == 0.0
        assert (scope.token.tp, scope.token.fp, scope.token.fn) == (4, 1, 1)
        assert scope.token.precision == 100.0 * 4 / 5
        assert scope.token.recall == 100.0 * 4 / 5
        assert scope.token.f1 == 100.0 * 4 / 5
        assert scope.pcs == 0.0 and scope.pcp == 100.0

        # discontinuous scope prediction: right set size, wrong set, gap
        scope = evaluate_scope([["O", "O", "C", "A", "O", "A", "A", "O"]], [scope_gold])
        assert (scope.token.tp, scope.token.fp, scope.token.fn) == (4, 0, 1)
        assert scope.token.precision == 100.0
        assert scope.token.recall == 100.0 * 4 / 5
        assert scope.token.f1 == 2 * 100.0 * 80.0 / 180.0
        assert scope.pcs == 0.0 and scope.pcp == 0.0

        # two sentences: PECM ignores the assertion, PCS/PCP skip empties
        cue = evaluate_cue(
            [cue_gold, ["NC", "C", "NC"]],
            [cue_gold, ["NC", "NC", "NC"]],
        )
        assert cue.token.precision == 50.0 and cue.token.recall == 100.0
        assert cue.token.f1 == 2 * 50.0 * 100.0 / 150.0
        assert cue.pecm == 100.0  # the only gold-cue sentence matches exactly
        scope = evaluate_scope(
            [scope_gold, ["O", "O", "O"]],
            [scope_gold, ["O", "O", "O"]],
        )
        assert scope.pcs == 100.0 and scope.pcp == 100.0

        # gold side empty: recall has no denominator
        cue = evaluate_cue([["NC", "C", "NC"]], [["NC", "NC", "NC"]])
        assert math.isnan(cue.token.recall) and cue.token.precision == 0.0
        assert math.isnan(cue.token.f1)
        assert math.isnan(cue.pecm)


def test_c6_postprocessor_always_yields_one_continuous_scope():
    with criterion("6 post-processor guarantee"):
        rng = np.random.default_rng(606)
        outputs = []
        for _ in range(10_000):
            n = int(rng.integers(1, 25))
            tags = [("O", "B", "C", "A")[k] for k in rng.integers(4, size=n)]
            bits = np.zeros(n, dtype=np.int64)
            bits[rng.integers(n, size=max(1, int(rng.integers(1, 4))))] = 1
            out = postprocess(tags, bits)
            assert valid_gold_pattern(out)
            assert out.count("C") == 1
            assert is_continuous(out)
            assert postprocess(out, bits) == out
            outputs.append(out)
        assert evaluate_scope(outputs, outputs).pcp == 100.0


@pytest.fixture(scope="module")
def twin_experiments(tmp_path_factory):
    """The same small experiment run twice with one seed and config."""
    root = tmp_path_factory.mktemp("accept")
    corpus = root / "corpus.col"
    write_column_file(corpus, synthetic_instances(40, seed=21))
    config = root / "config.txt"
    config.write_text("\n".join([
        f"corpus={corpus}",
        "seed=5",
        "max_len=20",
        "embed_dim=8",
        "units=6",
        "cue.variant=bilstm",
        "scope.variants=bilstm,bilstm-crf,bilstm-post",
        "cue.epochs=2", "cue.batch_size=8", "cue.lr0=0.01",
        "cue.decay_every=0", "cue.early_stopping=false",
        "scope.epochs=2", "scope.batch_size=8", "scope.lr0=0.01",
        "scope.decay_every=0", "scope.early_stopping=false",
    ]) + "\n")
    runs = []
    for name in ("first", "second"):
        out = root / name
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        runs.append(out)
    return SimpleNamespace(corpus=corpus, config=config, first=runs[0], second=runs[1])


def test_c7_experiment_reports_are_byte_identical_across_runs(twin_experiments):
    with criterion("7 pipeline determinism"):
        names = sorted(
            p.name for p in twin_experiments.first.iterdir()
            if p.suffix in (".txt", ".tsv", ".col", ".json", ".log", ".npz")
            and p.name != "config.txt"  # snapshot embeds the run directory path
        )
        assert "report.txt" in names and "comparison.tsv" in names
        for name in names:
            first = (twin_experiments.first / name).read_bytes()
            second = (twin_experiments.second / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"


def test_c8_replication_harness_runs_and_checks_corpus_statistics(twin_experiments):
    bioscope = os.environ.get("NEGSCOPE_BIOSCOPE_ABSTRACTS")
    note = "" if bioscope else " (corpus stats skipped: NEGSCOPE_BIOSCOPE_ABSTRACTS unset)"
    with criterion("8 replication harness" + note):
        out = twin_experiments.first
        for name in (
            "config.txt", "run.log", "vocab.json", "cue.npz",
            "cue_test_report.txt", "scope_bilstm.npz", "scope_bilstm-crf.npz",
            "scope_test_gold.col", "comparison.tsv", "report.txt",
        ):
            assert (out / name).is_file(), f"harness did not produce {name}"
        table = (out / "comparison.tsv").read_text().splitlines()
        assert len(table) == 4  # header plus one row per scope variant

        if bioscope:
            stats = corpus_stats(parse_column_file(bioscope))
            assert stats["sentences"] == 11_994
            pct = 100.0 * stats["negation_instances"] / stats["sentences"]
            assert abs(pct - 14.3) <= 0.5, f"negation fraction {pct:.2f}%"
