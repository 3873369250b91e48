"""CLI behavior: config handling, exit codes, run artifacts, replayable
reports, and the end-to-end experiment on a synthetic corpus."""
from __future__ import annotations

import json
import shutil
import tempfile
import weakref
from itertools import groupby
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negscope.models as models
import negscope.pipeline as pipeline
from negscope.corpus import (
    CorpusError,
    NegationInstance,
    Sentence,
    Vocabulary,
    format_column_blocks,
    read_tag_blocks,
    split_dataset,
    write_column_file,
)
from negscope.evaluation import evaluate_cue, evaluate_scope
from negscope.labeling import NegationAnnotation, cue_vector
from negscope.pipeline import (
    CONFIG_KEYS,
    UsageError,
    evaluate_files,
    main,
    parse_config_file,
    predict_scopes,
    resolve_config,
    smooth_scopes,
    snapshot_lines,
)
from negscope.models import check_variant, scope_base
from helpers import flip_entry_byte, is_continuous, synthetic_instances, tag_rows


def write_config(path, corpus, **overrides):
    values = {
        "corpus": str(corpus),
        "seed": 3,
        "max_len": 20,
        "embed_dim": 8,
        "units": 6,
        "embeddings_trainable": "true",
        "cue.variant": "bilstm",
        "scope.variants": "bilstm,bilstm-post",
        "cue.epochs": 2, "cue.batch_size": 8, "cue.lr0": 0.01,
        "cue.decay_every": 0, "cue.early_stopping": "false",
        "scope.epochs": 2, "scope.batch_size": 8, "scope.lr0": 0.01,
        "scope.decay_every": 0, "scope.early_stopping": "false",
    }
    values.update(overrides)
    path.write_text("\n".join(f"{k}={v}" for k, v in values.items()) + "\n")


def plain_args(**overrides):
    base = dict(config=None, seed=None, corpus=None, embeddings=None, out=None)
    base.update(overrides)
    return SimpleNamespace(**base)


class TestConfig:
    def test_file_values_override_defaults(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("# comment\n\nseed=9\ncue.lr0=0.5\nscope.variants=bilstm-crf\n")
        values = parse_config_file(cfg)
        assert values == {"seed": 9, "cue.lr0": 0.5, "scope.variants": ("bilstm-crf",)}
        config = resolve_config(plain_args(config=str(cfg)))
        assert config["seed"] == 9
        assert config["cue.lr0"] == 0.5
        assert config["scope.variants"] == ("bilstm-crf",)
        assert config["cue.epochs"] == 30  # untouched default

    def test_unknown_key_is_usage_error_with_line(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("seed=1\nbogus=2\n")
        with pytest.raises(UsageError, match=r"c.txt:2: unknown config key 'bogus'"):
            parse_config_file(cfg)

    def test_repeated_key_is_usage_error_naming_both_lines(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("seed=1\n# comment\nseed=2\n")
        with pytest.raises(UsageError, match=r"c.txt:3: seed already set on line 1"):
            parse_config_file(cfg)

    def test_repeated_scope_variant_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("scope.variants=bilstm,bilstm-post,bilstm\n")
        with pytest.raises(UsageError, match="c.txt:1: scope.variants: variant 'bilstm' listed twice"):
            parse_config_file(cfg)

    def test_bad_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("seed=fast\n")
        with pytest.raises(UsageError, match="seed"):
            parse_config_file(cfg)

    def test_out_precedence_flag_env_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.txt"
        cfg.write_text("out=/from-file\n")
        monkeypatch.setenv("NEGSCOPE_OUT", "/from-env")
        assert resolve_config(plain_args(config=str(cfg)))["out"] == "/from-env"
        assert resolve_config(plain_args(config=str(cfg), out="/from-flag"))["out"] == "/from-flag"
        monkeypatch.delenv("NEGSCOPE_OUT")
        assert resolve_config(plain_args(config=str(cfg)))["out"] == "/from-file"

    def test_unknown_variants_rejected(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("cue.variant=transformer\n")
        with pytest.raises(UsageError, match="unknown cue variant"):
            resolve_config(plain_args(config=str(cfg)))
        cfg.write_text("scope.variants=baseline\n")
        with pytest.raises(UsageError, match="unknown scope variant"):
            resolve_config(plain_args(config=str(cfg)))

    def test_missing_corpus_path(self):
        with pytest.raises(UsageError, match="no corpus given"):
            resolve_config(plain_args(), need_corpus=True)
        with pytest.raises(UsageError, match="not found"):
            resolve_config(plain_args(corpus="/nope.col"), need_corpus=True)

    def test_bad_training_numbers_are_usage_errors(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("cue.epochs=0\n")
        with pytest.raises(UsageError, match="cue training settings"):
            resolve_config(plain_args(config=str(cfg)))

    @pytest.mark.parametrize("setting", ["decay_every=-1", "decay_factor=-0.5",
                                         "decay_factor=0", "decay_factor=1.5"])
    def test_bad_decay_settings_exit_two(self, tmp_path, capsys, setting):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(8, seed=7))
        cfg = tmp_path / "c.txt"
        key, value = setting.split("=")
        write_config(cfg, corpus, **{f"cue.{key}": value})
        rc = main(["train-cue", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "cue training settings: decay_every must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lr0", ["inf", "nan"])
    def test_non_finite_lr0_exits_two_before_the_run_starts(self, tmp_path, capsys, lr0):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(8, seed=7))
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus, **{"cue.lr0": lr0})
        rc = main(["train-cue", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "cue training settings: epochs and batch_size must be >= 1 and lr0 finite" \
            in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_two_before_the_run_starts(self, tmp_path, capsys, where):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(8, seed=7))
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus, **({"seed": -1} if where == "config" else {}))
        argv = ["train-cue", "--config", str(cfg), "--out", str(tmp_path / "run")]
        rc = main(argv + (["--seed", "-1"] if where == "flag" else []))
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["max_len", "embed_dim", "units"])
    def test_size_below_one_exits_two(self, tmp_path, capsys, key):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(8, seed=7))
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus, **{key: 0})
        rc = main(["train-cue", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"{key} must be >= 1, got 0" in capsys.readouterr().err


def readme_config_rows() -> dict[str, str]:
    """key -> default cell of the README's configuration table; a row for
    a `cue.x` / `scope.x` pair gives both keys the same cell."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
    rows = {}
    for line in section.split("\n## ")[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            for key in cells[0].split(" / "):
                rows[key.strip("`")] = cells[1]
    return rows


class TestReadmeConfigTable:
    def test_every_key_has_a_row_with_its_default(self):
        rows = readme_config_rows()
        assert set(rows) == set(CONFIG_KEYS)
        for key, default in pipeline.DEFAULTS.items():
            if default is None:
                assert rows[key] in ("required", "none"), key
            else:
                assert rows[key] == f"`{pipeline._config_text(default)}`", key


class TestSmallHelpers:
    def test_cue_bits(self):
        assert cue_vector(["NC", "C", "MC", "NC"]) == [0, 1, 1, 0]

    def test_scope_base(self):
        assert scope_base("bilstm-post") == "bilstm"
        assert scope_base("bilstm-crf") == "bilstm-crf"


class TestEvaluateFiles:
    def test_identical_files_score_perfectly(self, tmp_path):
        path = tmp_path / "gold.col"
        write_column_file(path, synthetic_instances(8, seed=2))
        result = evaluate_files(path, path)
        assert result.cue.token.f1 == pytest.approx(100.0)
        assert result.scope.pcs == pytest.approx(100.0)
        assert "cue.f1=100.00" in result.text
        assert "scope.pcs=100.00" in result.text

    def test_cue_only_files_omit_scope_metrics(self, tmp_path):
        blocks = [("s1", ("no", "growth"), ("C", "NC"), None)]
        path = tmp_path / "cues.col"
        path.write_text(format_column_blocks(blocks))
        result = evaluate_files(path, path)
        assert result.scope is None
        assert "scope." not in result.text

    def test_mixed_scope_columns_are_an_error(self, tmp_path):
        blocks = [("s1", ("no", "growth"), ("C", "NC"), ("C", "A")),
                  ("s2", ("cells", "grew"), ("NC", "NC"), None)]
        path = tmp_path / "mixed.col"
        path.write_text(format_column_blocks(blocks))
        with pytest.raises(CorpusError, match="1 of 2 instances lack the scope column"):
            evaluate_files(path, path)
        assert main(["evaluate", str(path), str(path)]) == 1

    def test_token_mismatch_names_first_divergent_instance(self, tmp_path):
        a = tmp_path / "a.col"
        b = tmp_path / "b.col"
        a.write_text(format_column_blocks([("s1", ("x", "y"), ("NC", "NC"), None)]))
        b.write_text(format_column_blocks([("s1", ("x", "z"), ("NC", "NC"), None)]))
        with pytest.raises(Exception, match="instance 0 .s1."):
            evaluate_files(a, b)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_written_files_score_like_the_in_memory_metrics(self, data):
        gold = data.draw(st.lists(tag_rows(True), min_size=1, max_size=5))
        pred3 = [data.draw(tag_rows(True, tokens=g[1])) for g in gold]
        pred2 = [(sid, tokens, ctags, None) for sid, tokens, ctags, _ in pred3]
        cue = evaluate_cue([p[2] for p in pred3], [g[2] for g in gold])
        scope = evaluate_scope([p[3] for p in pred3], [g[3] for g in gold])
        with tempfile.TemporaryDirectory() as tmp:
            paths = {name: Path(tmp) / f"{name}.col" for name in ("gold", "pred2", "pred3")}
            for name, rows in (("gold", gold), ("pred2", pred2), ("pred3", pred3)):
                paths[name].write_text(format_column_blocks(rows), encoding="utf-8")
            cue_only = evaluate_files(paths["pred2"], paths["gold"])
            full = evaluate_files(paths["pred3"], paths["gold"])
        assert cue_only.instances == full.instances == len(gold)
        # repr, because NaN metrics never compare equal
        assert repr(cue_only.cue) == repr(full.cue) == repr(cue)
        assert cue_only.scope is None
        assert repr(full.scope) == repr(scope)


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    """One full experiment on 40 synthetic sentences, shared by the tests
    below."""
    root = tmp_path_factory.mktemp("exp")
    corpus = root / "corpus.col"
    write_column_file(corpus, synthetic_instances(40, seed=1))
    cfg = root / "config.txt"
    write_config(cfg, corpus)
    out = root / "run"
    rc = main(["experiment", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return SimpleNamespace(root=root, corpus=corpus, config=cfg, out=out)


def patch_cue_predictions(monkeypatch, rows_of):
    """Have each trained cue model tag the encoded instances it is given
    with rows_of(instances) instead of its own predictions."""
    train_tagger = pipeline.train_tagger

    def patched(config, corpus, task, *rest):
        tagger = train_tagger(config, corpus, task, *rest)
        if task == "cue":
            by_ids = {id(inst.token_ids): inst for inst in corpus.validation + corpus.test}
            tagger.predict_tags = lambda ids: rows_of([by_ids[id(row)] for row in ids])
        return tagger

    monkeypatch.setattr(pipeline, "train_tagger", patched)


def edited_run(experiment_run, root, name, edit) -> Path:
    """A run directory with the experiment's vocabulary and its cue and
    bilstm checkpoints, checkpoint `name` rewritten by edit(meta, arrays)."""
    run = root / "run"
    run.mkdir()
    for kept in ("vocab.json", "cue.npz", "scope_bilstm.npz"):
        shutil.copy(experiment_run.out / kept, run / kept)
    with np.load(run / name) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(str(arrays.pop("__meta__")))
    edit(meta, arrays)
    np.savez(run / name, __meta__=np.array(json.dumps(meta)), **arrays)
    return run


def assert_scope_test_set_recounts(out) -> dict:
    """Recount the scope test set from the cue files: `scope_test_gold.col`
    holds exactly the sentences either cue source marks, in split order, and
    report.txt's testset line has the same counts. Returns the counts."""
    gold = read_tag_blocks(out / "cue_test_gold.col")
    pred = read_tag_blocks(out / "cue_test_pred.col")
    counts = dict.fromkeys(("tp", "fn", "fp", "tn"), 0)
    expected = []
    for g, p in zip(gold, pred, strict=True):
        g_cue, p_cue = any(cue_vector(g.cue_tags)), any(cue_vector(p.cue_tags))
        counts[("tp" if p_cue else "fn") if g_cue else ("fp" if p_cue else "tn")] += 1
        if g_cue or p_cue:
            expected.append((g.source_id, g.tokens))
    scope_gold = read_tag_blocks(out / "scope_test_gold.col")
    assert [(b.source_id, b.tokens) for b in scope_gold] == expected
    report = (out / "report.txt").read_text().splitlines()
    assert report[0] == " ".join(
        [f"testset.{key}={n}" for key, n in counts.items()]
        + [f"testset.size={len(expected)}"]
    )
    return counts


class TestExperiment:
    def test_artifacts_are_self_contained(self, experiment_run):
        out = experiment_run.out
        for name in (
            "config.txt", "run.log", "vocab.json", "cue.npz",
            "cue_val_report.txt", "cue_test_report.txt",
            "scope_bilstm.npz", "scope_test_gold.col",
            "scope_bilstm_goldcue_pred.col", "scope_bilstm_predcue_pred.col",
            "scope_bilstm-post_goldcue_report.txt",
            "comparison.tsv", "report.txt",
        ):
            assert (out / name).is_file(), f"missing {name}"
        # -post shares the bilstm weights, so no second checkpoint appears
        assert not (out / "scope_bilstm-post.npz").exists()

    def test_run_log_records_wiring(self, experiment_run):
        text = (experiment_run.out / "run.log").read_text()
        assert "task=cue variant=bilstm decoder=argmax" in text
        assert "cue_inputs=gold" in text

    def test_scope_test_set_is_every_sentence_either_cue_source_marks(self, experiment_run):
        assert_scope_test_set_recounts(experiment_run.out)

    def test_scope_test_set_with_all_four_groups(self, experiment_run, tmp_path,
                                                 monkeypatch):
        # the trained cue model marks no test sentence, so predict gold cue
        # presence instead, flipped on the first negation and the first
        # non-negation sentence: every group gets a member
        def flipped_cues(data):
            rows, flipped = [], set()
            for inst in data:
                has_cue = inst.is_negation != (inst.is_negation not in flipped)
                flipped.add(inst.is_negation)
                rows.append(["C" if has_cue and k == 0 else "NC" for k in range(len(inst.tokens))])
            return rows

        patch_cue_predictions(monkeypatch, flipped_cues)
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(experiment_run.config),
                     "--out", str(out)]) == 0
        counts = assert_scope_test_set_recounts(out)
        assert all(counts.values()), counts

    def test_empty_task2_test_set_fails_before_scope_training(self, tmp_path, capsys,
                                                              monkeypatch):
        # the test split holds no gold negation and the cue model marks no
        # sentence, so tp + fn + fp is empty
        negations = [inst for inst in synthetic_instances(40, seed=8) if inst.is_negation]
        test = set(split_dataset(list(range(20)), seed=3).test)
        instances = [NegationInstance(Sentence(("all", "samples", "grew", "."), f"plain.{k}"))
                     if k in test else negations[k] for k in range(20)]
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, instances)
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus)
        patch_cue_predictions(monkeypatch,
                              lambda data: [["NC"] * len(inst.tokens) for inst in data])
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert "empty Task-2 test set" in capsys.readouterr().err
        assert (out / "cue.npz").is_file() and not list(out.glob("scope_*.npz"))


    @pytest.mark.parametrize("marks_cues", [False, True])
    def test_run_log_names_a_test_split_without_a_predicted_cue(self, experiment_run, tmp_path,
                                                                monkeypatch, marks_cues):
        """With no predicted cue in the test split, tp + fp = 0 and every
        predicted-cue scope F1 is NaN; run.log says why, and only then."""
        patch_cue_predictions(monkeypatch, lambda data: [
            list(inst.cue_tags) if marks_cues else ["NC"] * len(inst.tokens) for inst in data])
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(experiment_run.config),
                     "--out", str(out)]) == 0
        note = ("testset: the cue model predicted no cue in the test split (tp + fp = 0), "
                "so every predcue scope F1 is NaN")
        assert (note in (out / "run.log").read_text().splitlines()) != marks_cues
        pred_f1 = [row.split("\t")[2] for row in
                   (out / "comparison.tsv").read_text().splitlines()[1:]]
        assert (pred_f1 == ["NaN", "NaN"]) != marks_cues

    def test_each_base_model_predicts_each_cue_condition_once(self, experiment_run, tmp_path,
                                                              monkeypatch):
        """bilstm-post smooths the bilstm model's rows instead of running
        the model again, and the run's artifacts do not change."""
        calls = []

        def counted(tagger, token_ids, cue_tags):
            calls.append(tagger.config.variant)
            return predict_scopes(tagger, token_ids, cue_tags)

        monkeypatch.setattr(pipeline, "predict_scopes", counted)
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(experiment_run.config),
                     "--out", str(out)]) == 0
        assert calls == ["bilstm", "bilstm"]
        for condition in ("gold", "pred"):
            base = read_tag_blocks(out / f"scope_bilstm_{condition}cue_pred.col")
            post = read_tag_blocks(out / f"scope_bilstm-post_{condition}cue_pred.col")
            cues = [b.cue_tags for b in base]
            assert [b.cue_tags for b in post] == cues
            smoothed = smooth_scopes([list(b.scope_tags) for b in base], cues)
            assert [list(b.scope_tags) for b in post] == smoothed
        for path in sorted(experiment_run.out.iterdir()):
            if path.name != "config.txt":
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_one_scope_model_is_alive_at_a_time(self, experiment_run, tmp_path, monkeypatch):
        """Each base model tags both cue conditions and is dropped before
        the next base trains; the test set line still follows every scope
        training line in run.log."""
        run_scope_training = pipeline.run_scope_training
        trained, alive = [], []

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in trained))
            tagger = run_scope_training(*args)
            trained.append(weakref.ref(tagger))
            return tagger

        monkeypatch.setattr(pipeline, "run_scope_training", tracked)
        cfg = tmp_path / "config.txt"
        write_config(cfg, experiment_run.corpus,
                     **{"scope.variants": "bilstm,bilstm-crf,bilstm-post"})
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert alive == [0, 0]
        assert [ref() for ref in trained] == [None, None]
        lines = (out / "run.log").read_text().splitlines()
        scope = [k for k, line in enumerate(lines) if line.startswith(("scope ", "task=scope"))]
        testset = [k for k, line in enumerate(lines) if line.startswith("testset.")]
        assert len(scope) == 8 and testset == [scope[-1] + 1]

    def test_comparison_table_has_a_row_per_variant(self, experiment_run):
        lines = (experiment_run.out / "comparison.tsv").read_text().splitlines()
        assert lines[0].startswith("variant\tgold_f1\tpred_f1\tdifference")
        assert [row.split("\t")[0] for row in lines[1:]] == ["bilstm", "bilstm-post"]
        for row in lines[1:]:
            assert len(row.split("\t")) == 8

    def test_post_variant_predictions_are_continuous(self, experiment_run):
        blocks = read_tag_blocks(
            experiment_run.out / "scope_bilstm-post_goldcue_pred.col"
        )
        for block in blocks:
            assert is_continuous(list(block.scope_tags))

    def test_replayed_evaluate_reproduces_report_bytes(self, experiment_run, capsys):
        out = experiment_run.out
        for report in ("scope_bilstm_goldcue_report.txt", "cue_test_report.txt"):
            pred = report.replace("_report.txt", "_pred.col")
            gold = (
                "scope_test_gold.col" if report.startswith("scope")
                else pred.replace("_pred", "_gold")
            )
            rc = main(["evaluate", str(out / pred), str(out / gold)])
            assert rc == 0
            assert capsys.readouterr().out == (out / report).read_text()

    def test_config_snapshot_resolves_to_itself(self, experiment_run, monkeypatch):
        monkeypatch.delenv("NEGSCOPE_OUT", raising=False)
        snapshot = experiment_run.out / "config.txt"
        lines = snapshot.read_text().splitlines()
        assert {line.split("=")[0] for line in lines} == set(CONFIG_KEYS)
        assert snapshot_lines(resolve_config(plain_args(config=str(snapshot)))) == lines

    def test_same_seed_run_is_byte_identical(self, experiment_run, tmp_path):
        again = tmp_path / "again"
        rc = main(["experiment", "--config", str(experiment_run.config),
                   "--out", str(again)])
        assert rc == 0
        for name in ("report.txt", "comparison.tsv", "run.log",
                     "cue_test_report.txt", "scope_bilstm_predcue_pred.col"):
            assert (again / name).read_bytes() == \
                (experiment_run.out / name).read_bytes(), name


class TestPredict:
    def test_full_pipeline_on_gold_file(self, experiment_run, tmp_path):
        out_file = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(experiment_run.out),
                   str(experiment_run.out / "scope_test_gold.col"), str(out_file)])
        assert rc == 0
        blocks = read_tag_blocks(out_file)
        gold_blocks = read_tag_blocks(experiment_run.out / "scope_test_gold.col")
        assert len(blocks) == len(gold_blocks)
        for pred, gold in zip(blocks, gold_blocks):
            assert pred.tokens == gold.tokens
            assert pred.scope_tags is not None

    def test_postprocess_flag_forces_continuity(self, experiment_run, tmp_path):
        out_file = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(experiment_run.out), "--postprocess",
                   str(experiment_run.out / "scope_test_gold.col"), str(out_file)])
        assert rc == 0
        for block in read_tag_blocks(out_file):
            assert is_continuous(list(block.scope_tags))

    def test_gold_cue_input_copies_the_cue_column(self, experiment_run, tmp_path):
        out_file = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(experiment_run.out), "--cue-input", "gold",
                   str(experiment_run.out / "scope_test_gold.col"), str(out_file)])
        assert rc == 0
        gold_blocks = read_tag_blocks(experiment_run.out / "scope_test_gold.col")
        for pred, gold in zip(read_tag_blocks(out_file), gold_blocks):
            assert pred.cue_tags == gold.cue_tags

    @pytest.mark.parametrize("flag", [["--postprocess"], ["--cue-input", "gold"]],
                             ids=["postprocess", "cue-input-gold"])
    def test_scope_flag_without_scope_checkpoint_is_usage_error(self, experiment_run,
                                                                 tmp_path, capsys, flag):
        cue_only = tmp_path / "cue_only"
        cue_only.mkdir()
        for name in ("cue.npz", "vocab.json"):
            shutil.copy(experiment_run.out / name, cue_only / name)
        rc = main(["predict", "--out", str(cue_only), *flag,
                   str(experiment_run.out / "scope_test_gold.col"), str(tmp_path / "pred.col")])
        assert rc == 2
        assert f"{' '.join(flag)} needs a scope checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "pred.col").exists()

    @pytest.mark.parametrize("budget", [1, 9, 10**6])
    def test_follow_up_predict_reproduces_the_experiment(self, experiment_run, tmp_path,
                                                         monkeypatch, budget):
        """Other chunk compositions (budget, input order, extra sentences)
        give the experiment's own test-split tags."""
        out = experiment_run.out
        test = read_tag_blocks(out / "cue_test_pred.col")
        scopes = {b.source_id: b.scope_tags
                  for b in read_tag_blocks(out / "scope_bilstm-post_predcue_pred.col")}
        extra = [(f"extra.{i}", inst.sentence.tokens, tuple(inst.cue_tags()), None)
                 for i, inst in enumerate(synthetic_instances(7, seed=8))]
        source = tmp_path / "input.col"
        source.write_text(format_column_blocks(
            extra[:3] + [(b.source_id, b.tokens, b.cue_tags, None) for b in test[::-1]]
            + extra[3:]
        ))
        monkeypatch.setattr(models, "PREDICT_TOKEN_BUDGET", budget)
        rc = main(["predict", "--out", str(out), "--variant", "bilstm", "--postprocess",
                   str(source), str(tmp_path / "pred.col")])
        assert rc == 0
        tagged = {b.source_id: b for b in read_tag_blocks(tmp_path / "pred.col")}
        for block in test:
            assert tagged[block.source_id].cue_tags == block.cue_tags
            if block.source_id in scopes:
                assert tagged[block.source_id].scope_tags == scopes[block.source_id]

    def test_two_scope_checkpoints_need_a_variant(self, experiment_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(experiment_run.out, run)
        shutil.copy(run / "scope_bilstm.npz", run / "scope_bilstm-crf.npz")
        rc = main(["predict", "--out", str(run), str(run / "scope_test_gold.col"),
                   str(tmp_path / "pred.col")])
        assert rc == 2
        assert "several scope checkpoints ['bilstm-crf', 'bilstm']; pick one with --variant" \
            in capsys.readouterr().err
        assert not (tmp_path / "pred.col").exists()

    def test_a_missing_post_checkpoint_names_its_base_and_postprocess(self, experiment_run,
                                                                       tmp_path, capsys):
        out = experiment_run.out
        rc = main(["predict", "--out", str(out), "--variant", "bilstm-post",
                   str(out / "scope_test_gold.col"), str(tmp_path / "pred.col")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"no checkpoint {out / 'scope_bilstm-post.npz'}; bilstm-post runs " \
            f"{out / 'scope_bilstm.npz'} with smoothing: " \
            "use --variant bilstm --postprocess" in err
        rc = main(["predict", "--out", str(out), "--variant", "bilstm-crf",
                   str(out / "scope_test_gold.col"), str(tmp_path / "pred.col")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: no checkpoint {out / 'scope_bilstm-crf.npz'}\n"

    @pytest.mark.parametrize("cue_input, loads", [
        ("pred", ["cue.npz", "scope_bilstm.npz"]),
        ("gold", ["scope_bilstm.npz"]),
    ])
    def test_one_model_is_resident_at_a_time(self, experiment_run, tmp_path, monkeypatch,
                                             cue_input, loads):
        """The cue tagger is unreachable before the scope checkpoint's arrays
        are read, and with gold cues its arrays are never read."""
        load_checkpoint = pipeline.load_checkpoint
        loaded, alive = [], []

        def tracked(path):
            alive.append(sum(ref() is not None for _, ref in loaded))
            tagger, meta = load_checkpoint(path)
            loaded.append((Path(path).name, weakref.ref(tagger)))
            return tagger, meta

        monkeypatch.setattr(pipeline, "load_checkpoint", tracked)
        rc = main(["predict", "--out", str(experiment_run.out), "--variant", "bilstm",
                   "--cue-input", cue_input, str(experiment_run.out / "scope_test_gold.col"),
                   str(tmp_path / "pred.col")])
        assert rc == 0
        assert [name for name, _ in loaded] == loads
        assert alive == [0] * len(loads)

    @pytest.mark.parametrize("fault", ["meta", "vocab"])
    @pytest.mark.parametrize("name", ["cue.npz", "scope_bilstm.npz"])
    def test_a_bad_checkpoint_fails_before_any_model_runs(self, experiment_run, tmp_path,
                                                          capsys, monkeypatch, name, fault):
        """Both checkpoints' metadata and vocabulary hashes are checked
        before either model is loaded."""
        def edit(meta, arrays):
            if fault == "meta":
                del meta["head"]
            else:
                meta["vocab_sha256"] = "0" * 64

        run = edited_run(experiment_run, tmp_path, name, edit)
        ran = []
        monkeypatch.setattr(models.Tagger, "predict_ids", lambda *args: ran.append(args))
        output = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(run), str(experiment_run.out / "scope_test_gold.col"),
                   str(output)])
        assert rc == 1
        err = capsys.readouterr().err
        assert name in err and ("'head'" if fault == "meta" else "different vocabulary") in err
        assert ran == [] and not output.exists()

    @pytest.mark.parametrize("damage", ["empty", "truncated", "meta_list", "array_crc"])
    def test_an_unreadable_checkpoint_fails_with_its_path(self, experiment_run, tmp_path,
                                                           capsys, damage):
        run = edited_run(experiment_run, tmp_path, "cue.npz", lambda meta, arrays: None)
        checkpoint = run / "cue.npz"
        whole = checkpoint.read_bytes()
        if damage == "array_crc":
            flip_entry_byte(checkpoint, "dense.b.npy")
        elif damage == "meta_list":
            np.savez(checkpoint, __meta__=np.array(json.dumps([1, 2])))
        else:
            checkpoint.write_bytes(whole[:len(whole) // 2] if damage == "truncated" else b"")
        output = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(run), str(experiment_run.out / "scope_test_gold.col"),
                   str(output)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {checkpoint}: ")
        assert not output.exists()

    @pytest.mark.parametrize("name", ["cue.npz", "scope_bilstm.npz"])
    def test_a_misshapen_array_fails_before_the_output_is_written(self, experiment_run,
                                                                  tmp_path, capsys, name):
        def edit(meta, arrays):
            arrays["dense.b"] = np.zeros(len(arrays["dense.b"]) + 1)

        run = edited_run(experiment_run, tmp_path, name, edit)
        output = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(run), str(experiment_run.out / "scope_test_gold.col"),
                   str(output)])
        assert rc == 1
        assert f"{name}: dense.b has shape" in capsys.readouterr().err
        assert not output.exists()

    def test_raw_input_with_gold_cues_fails_before_anything_is_read(self, tmp_path, capsys,
                                                                   monkeypatch):
        def refuse(*args):
            raise AssertionError("a checkpoint was read")

        monkeypatch.setattr(pipeline, "read_checkpoint_meta", refuse)
        monkeypatch.setattr(pipeline, "load_checkpoint", refuse)
        rc = main(["predict", "--out", str(tmp_path / "no_run"), "--raw", "--cue-input", "gold",
                   str(tmp_path / "missing.txt")])
        assert rc == 2
        assert "--cue-input gold needs a cue column in the input" in capsys.readouterr().err

    def test_raw_text_is_tokenized(self, experiment_run, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("the cells showed no growth.\n\n")
        rc = main(["predict", "--out", str(experiment_run.out), "--raw", str(raw)])
        assert rc == 0
        tagged = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[0] for line in tagged] == \
            ["the", "cells", "showed", "no", "growth", "."]

    def test_raw_text_without_sentences_is_an_error(self, experiment_run, tmp_path,
                                                     capsys):
        raw = tmp_path / "blank.txt"
        raw.write_text("\n  \n\t\n")
        output = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(experiment_run.out), "--raw", str(raw),
                   str(output)])
        assert rc == 1
        assert "no sentences found" in capsys.readouterr().err
        assert not output.exists()

    def test_raw_text_that_is_not_utf8_fails_naming_it(self, experiment_run, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_bytes(b"the cells showed no growth\xff.\n")
        output = tmp_path / "pred.col"
        rc = main(["predict", "--out", str(experiment_run.out), "--raw", str(raw), str(output)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {raw}: not UTF-8 text")
        assert not output.exists()

    def test_vocabulary_mismatch_is_an_error(self, experiment_run, tmp_path, capsys):
        stale = tmp_path / "stale"
        stale.mkdir()
        shutil.copy(experiment_run.out / "cue.npz", stale / "cue.npz")
        Vocabulary({"unrelated": 1}).save(stale / "vocab.json")
        rc = main(["predict", "--out", str(stale),
                   str(experiment_run.out / "scope_test_gold.col")])
        assert rc == 1
        assert "different vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["head", "vocab_sha256"])
    def test_checkpoint_without_a_meta_key_fails_cleanly(self, experiment_run, tmp_path,
                                                        capsys, key):
        stale = tmp_path / "stale"
        stale.mkdir()
        shutil.copy(experiment_run.out / "vocab.json", stale / "vocab.json")
        with np.load(experiment_run.out / "cue.npz") as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("__meta__")))
        del meta[key]
        np.savez(stale / "cue.npz", __meta__=np.array(json.dumps(meta)), **arrays)
        rc = main(["predict", "--out", str(stale),
                   str(experiment_run.out / "scope_test_gold.col")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cue.npz" in err and repr(key) in err

    @pytest.mark.parametrize("key", ["oov_index", "tokens"])
    def test_vocab_without_a_key_fails_cleanly(self, experiment_run, tmp_path, capsys, key):
        stale = tmp_path / "stale"
        stale.mkdir()
        shutil.copy(experiment_run.out / "cue.npz", stale / "cue.npz")
        vocab = json.loads((experiment_run.out / "vocab.json").read_text())
        del vocab[key]
        (stale / "vocab.json").write_text(json.dumps(vocab))
        rc = main(["predict", "--out", str(stale),
                   str(experiment_run.out / "scope_test_gold.col")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vocab.json" in err and repr(key) in err


class TestTrainCommands:
    def test_max_len_cuts_training_instances_only(self, tmp_path):
        corpus = tmp_path / "corpus.col"
        instances = synthetic_instances(40, seed=6)  # 5 to 8 tokens each
        write_column_file(corpus, instances)
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus, max_len=4, **{"cue.epochs": 1})
        out = tmp_path / "run"
        assert main(["train-cue", "--config", str(cfg), "--out", str(out)]) == 0

        log = (out / "run.log").read_text()
        train_size = int(log.split("split.train=")[1].split()[0])
        assert f"train.max_len=4 train.cut_instances={train_size}" in log
        full = {inst.sentence.source_id: inst for inst in instances}
        pred = read_tag_blocks(out / "cue_test_pred.col")
        gold = read_tag_blocks(out / "cue_test_gold.col")
        assert pred and [b.tokens for b in pred] == [b.tokens for b in gold]
        gold_cues = 0
        for block in gold:
            inst = full[block.source_id]
            assert block.tokens == inst.sentence.tokens
            assert block.cue_tags == tuple(inst.cue_tags())
            gold_cues += sum(t != "NC" for t in block.cue_tags)
        assert any(t != "NC" for b in gold for t in b.cue_tags[4:])  # cues past the cut
        report = (out / "cue_test_report.txt").read_text()
        assert report == evaluate_files(out / "cue_test_pred.col", out / "cue_test_gold.col").text
        counts = dict(line.split("=") for line in report.splitlines())
        assert int(counts["cue.tp"]) + int(counts["cue.fn"]) == gold_cues

    def test_train_cue_crf_variant_logs_viterbi(self, tmp_path):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(16, seed=4))
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus, **{"cue.epochs": 1, "scope.epochs": 1})
        out = tmp_path / "run"
        rc = main(["train-cue", "--config", str(cfg), "--out", str(out),
                   "--variant", "emb-crf"])
        assert rc == 0
        assert (out / "cue.npz").is_file()
        text = (out / "run.log").read_text()
        assert "task=cue variant=emb-crf decoder=viterbi" in text
        assert "cue.variant=emb-crf" in (out / "config.txt").read_text()

    def test_train_scope_post_smooths_its_reports(self, tmp_path):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(24, seed=5))
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus, **{"scope.epochs": 1})
        out = tmp_path / "run"
        rc = main(["train-scope", "--config", str(cfg), "--out", str(out),
                   "--variant", "bilstm-post"])
        assert rc == 0
        assert (out / "scope_bilstm-post.npz").is_file()
        report = (out / "scope_test_report.txt").read_text()
        assert "scope.pcp=100.00" in report

    def test_train_scope_pred_cues_need_a_checkpoint(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(16, seed=6))
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus, **{"cue.epochs": 1, "scope.epochs": 1})
        out = tmp_path / "run"
        rc = main(["train-scope", "--config", str(cfg), "--out", str(out),
                   "--variant", "bilstm", "--cue-input", "pred"])
        assert rc == 2
        assert "needs a trained cue model" in capsys.readouterr().err

        assert main(["train-cue", "--config", str(cfg), "--out", str(out)]) == 0
        rc = main(["train-scope", "--config", str(cfg), "--out", str(out),
                   "--variant", "bilstm", "--cue-input", "pred"])
        assert rc == 0
        assert "pred_cues id=" in (out / "run.log").read_text()

    def test_train_scope_pred_cues_hold_one_model_at_a_time(self, experiment_run, tmp_path,
                                                            monkeypatch):
        """The cue tagger tags the validation and test sets and is dropped
        before the scope model trains; run.log still lists each set's
        predicted cues after training, just before its scores."""
        out = tmp_path / "run"
        out.mkdir()
        shutil.copy(experiment_run.out / "cue.npz", out / "cue.npz")
        load_checkpoint, run_scope_training = pipeline.load_checkpoint, pipeline.run_scope_training
        loaded, alive = [], []

        def tracked_load(path):
            tagger, meta = load_checkpoint(path)
            loaded.append(weakref.ref(tagger))
            return tagger, meta

        def tracked_training(*args):
            alive.append(sum(ref() is not None for ref in loaded))
            return run_scope_training(*args)

        monkeypatch.setattr(pipeline, "load_checkpoint", tracked_load)
        monkeypatch.setattr(pipeline, "run_scope_training", tracked_training)
        assert main(["train-scope", "--config", str(experiment_run.config), "--out", str(out),
                     "--variant", "bilstm", "--cue-input", "pred"]) == 0
        assert len(loaded) == 1 and alive == [0]
        lines = (out / "run.log").read_text().splitlines()
        trained = next(k for k, line in enumerate(lines) if line.startswith("scope best_epoch="))
        kinds = [line.split(".")[1] if line.startswith("scope.") else line.split()[0]
                 for line in lines[trained + 1:]]
        assert [kind for kind, _ in groupby(kinds)] == ["pred_cues", "val", "pred_cues", "test"]

    def test_train_scope_trains_the_one_configured_variant(self, experiment_run, tmp_path):
        cfg = tmp_path / "c.txt"
        write_config(cfg, experiment_run.corpus, **{"scope.variants": "bilstm-crf"})
        out = tmp_path / "run"
        assert main(["train-scope", "--config", str(cfg), "--out", str(out)]) == 0
        assert [p.name for p in out.glob("scope_*.npz")] == ["scope_bilstm-crf.npz"]
        assert "task=scope variant=bilstm-crf" in (out / "run.log").read_text()
        assert "scope.variants=bilstm-crf" in (out / "config.txt").read_text().splitlines()

    def test_train_scope_over_several_variants_needs_one(self, experiment_run, tmp_path,
                                                         capsys):
        out = tmp_path / "run"
        rc = main(["train-scope", "--config", str(experiment_run.config), "--out", str(out)])
        assert rc == 2
        assert "config selects several scope variants ('bilstm', 'bilstm-post'); " \
            "pick one with --variant" in capsys.readouterr().err
        assert not out.exists()

    def test_train_scope_variant_flag_is_the_snapshot_variant(self, experiment_run, tmp_path,
                                                              monkeypatch):
        monkeypatch.delenv("NEGSCOPE_OUT", raising=False)
        cfg = tmp_path / "c.txt"
        write_config(cfg, experiment_run.corpus,
                     **{"scope.variants": "bilstm,bilstm-crf,bilstm-post"})
        out = tmp_path / "run"
        assert main(["train-scope", "--config", str(cfg), "--out", str(out),
                     "--variant", "bilstm-crf"]) == 0
        lines = (out / "config.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith("scope.variants=")] == \
            ["scope.variants=bilstm-crf"]
        assert snapshot_lines(resolve_config(plain_args(config=str(out / "config.txt")))) == lines

    def test_train_scope_that_fails_before_training_leaves_the_run_as_it_was(
            self, experiment_run, tmp_path, capsys):
        """A cue model trained under another seed's split has another
        vocabulary: train-scope refuses it before it writes anything, so
        the run's own checkpoints still predict."""
        out = tmp_path / "run"
        config = ["--config", str(experiment_run.config), "--out", str(out)]
        assert main(["train-cue", *config, "--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rc = main(["train-scope", *config, "--seed", "2", "--variant", "bilstm",
                   "--cue-input", "pred"])
        assert rc == 1
        assert "cue.npz: checkpoint was trained with a different vocabulary" \
            in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(["predict", "--out", str(out), str(experiment_run.corpus),
                     str(tmp_path / "pred.col")]) == 0

    def test_train_scope_without_negations_fails_cleanly(self, tmp_path, capsys):
        instances = [
            NegationInstance(
                Sentence(("all", "samples", "grew", "."), f"plain.{k}"),
                NegationAnnotation(),
            )
            for k in range(8)
        ]
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, instances)
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus)
        rc = main(["train-scope", "--config", str(cfg),
                   "--out", str(tmp_path / "run"), "--variant", "bilstm"])
        assert rc == 1
        assert "empty Task-2 training set" in capsys.readouterr().err

    def test_train_scope_with_an_empty_test_split_fails_before_training(self, tmp_path, capsys):
        # the seed-3 test split holds only plain sentences
        negations = [inst for inst in synthetic_instances(40, seed=8) if inst.is_negation]
        test = set(split_dataset(list(range(20)), seed=3).test)
        instances = [NegationInstance(Sentence(("all", "samples", "grew", "."), f"plain.{k}"))
                     if k in test else negations[k] for k in range(20)]
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, instances)
        cfg = tmp_path / "c.txt"
        write_config(cfg, corpus)
        out = tmp_path / "run"
        rc = main(["train-scope", "--config", str(cfg), "--out", str(out), "--variant", "bilstm"])
        assert rc == 1
        assert "empty Task-2 test set" in capsys.readouterr().err
        assert not list(out.glob("scope_*.npz")) and not list(out.glob("scope_val_*"))
        assert not out.exists()


class TestExitCodes:
    def test_missing_corpus_is_usage_error(self, tmp_path, capsys):
        rc = main(["train-cue", "--corpus", str(tmp_path / "nope.col"),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_variant_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.col"
        write_column_file(corpus, synthetic_instances(8, seed=7))
        rc = main(["train-cue", "--corpus", str(corpus),
                   "--out", str(tmp_path / "run"), "--variant", "transformer"])
        assert rc == 2
        with pytest.raises(ValueError) as exc:
            check_variant("cue", "transformer")
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("turbo=yes\n")
        rc = main(["train-cue", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["config", "corpus", "prediction"])
    def test_a_file_that_is_not_utf8_fails_naming_it(self, tmp_path, capsys, reader):
        """A config file is a usage error (exit 2); a corpus or prediction
        file, read by the column reader, a runtime error (exit 1)."""
        corpus, cfg, pred = tmp_path / "corpus.col", tmp_path / "c.txt", tmp_path / "pred.col"
        write_column_file(corpus, synthetic_instances(8, seed=7))
        write_config(cfg, corpus)
        shutil.copy(corpus, pred)
        bad = {"config": cfg, "corpus": corpus, "prediction": pred}[reader]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        rc = main(["evaluate", str(pred), str(corpus)] if reader == "prediction" else
                  ["train-cue", "--config", str(cfg), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        if reader == "config":
            assert rc == 2 and err.startswith(f"error: cannot read config file {cfg}: 'utf-8'")
        else:
            assert rc == 1 and err.startswith(f"error: {bad}: not UTF-8 text ('utf-8'")

    def test_misaligned_evaluate_is_runtime_error(self, tmp_path, capsys):
        a = tmp_path / "a.col"
        b = tmp_path / "b.col"
        a.write_text(format_column_blocks([("s", ("x",), ("NC",), None)]))
        b.write_text(format_column_blocks(
            [("s", ("x",), ("NC",), None), ("t", ("y",), ("NC",), None)]
        ))
        rc = main(["evaluate", str(a), str(b)])
        assert rc == 1
        assert "instances" in capsys.readouterr().err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_evaluate_out_writes_report_copy(self, tmp_path, capsys):
        gold = tmp_path / "g.col"
        write_column_file(gold, synthetic_instances(6, seed=8))
        report = tmp_path / "report.txt"
        rc = main(["evaluate", str(gold), str(gold), "--out", str(report)])
        assert rc == 0
        assert report.read_text() == capsys.readouterr().out
