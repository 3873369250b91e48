"""Command-line front end: train the cue tagger, train the scope tagger on
gold cues, tag new text, score prediction files, and run the two-condition
experiment that compares scope resolution under gold versus predicted cues
on the identical tp + fn + fp sentence set.

Every run directory is self-contained: the resolved config snapshot, the
vocabulary, checkpoints, prediction files next to their gold subsets, the
metric reports, and a plain-text run log. Re-running `evaluate` on the
persisted files reproduces the reports byte for byte, and the same seed
plus the same config reproduces the whole run.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import (
    CorpusError,
    Vocabulary,
    build_vocab,
    corpus_stats,
    encode_instances,
    format_column_blocks,
    load_embedding_file,
    parse_column_file,
    read_tag_blocks,
    split_dataset,
    tokenize,
)
from .evaluation import (
    CueReport,
    ScopeReport,
    build_task2_testset,
    evaluate_cue,
    evaluate_scope,
    metric_str,
)
from .labeling import cue_vector, postprocess
from .models import (
    CUE_VARIANTS,
    SCOPE_VARIANTS,
    Tagger,
    cue_config,
    load_checkpoint,
    save_checkpoint,
    scope_config,
)
from .training import TrainConfig, train

log = logging.getLogger("negscope.pipeline")

OUT_ENV_VAR = "NEGSCOPE_OUT"


class UsageError(Exception):
    """Bad flags, bad config keys, or unmet preconditions. Exit code 2."""


# ---------------------------------------------------------------------------
# configuration

def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _variant_list(text: str) -> tuple[str, ...]:
    items = tuple(v.strip() for v in text.split(",") if v.strip())
    if not items:
        raise ValueError("expected at least one variant")
    return items


# the full key set; a config file may set any subset and nothing else
CONFIG_KEYS = {
    "corpus": str,
    "embeddings": str,
    "out": str,
    "seed": int,
    "max_len": int,
    "embed_dim": int,
    "units": int,
    "embeddings_trainable": _bool,
    "cue.variant": str,
    "scope.variants": _variant_list,
    "cue.epochs": int, "cue.batch_size": int, "cue.lr0": float,
    "cue.decay_every": int, "cue.decay_factor": float,
    "cue.patience": int, "cue.early_stopping": _bool,
    "scope.epochs": int, "scope.batch_size": int, "scope.lr0": float,
    "scope.decay_every": int, "scope.decay_factor": float,
    "scope.patience": int, "scope.early_stopping": _bool,
}

DEFAULTS = {
    "seed": 0,
    "max_len": 100,
    "embed_dim": 200,
    "units": 200,
    "embeddings_trainable": False,
    "cue.variant": "bilstm-crf",
    "scope.variants": ("bilstm",),
    "cue.epochs": 30, "cue.batch_size": 32, "cue.lr0": 0.001,
    "cue.decay_every": 10, "cue.decay_factor": 0.5,
    "cue.patience": 2, "cue.early_stopping": True,
    "scope.epochs": 30, "scope.batch_size": 32, "scope.lr0": 0.001,
    "scope.decay_every": 10, "scope.decay_factor": 0.5,
    "scope.patience": 2, "scope.early_stopping": True,
}


def parse_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


@dataclass
class ExperimentConfig:
    corpus: str | None
    embeddings: str | None
    out: str | None
    seed: int
    cue_variant: str
    scope_variants: tuple[str, ...]
    cue_train: TrainConfig
    scope_train: TrainConfig

    def snapshot_lines(self) -> list[str]:
        lines = [
            f"corpus={self.corpus or ''}",
            f"embeddings={self.embeddings or ''}",
            f"out={self.out or ''}",
            f"seed={self.seed}",
            f"max_len={self.cue_train.max_len}",
            f"embed_dim={self.cue_train.embed_dim}",
            f"units={self.cue_train.units}",
            f"embeddings_trainable={str(self.cue_train.embeddings_trainable).lower()}",
            f"cue.variant={self.cue_variant}",
            f"scope.variants={','.join(self.scope_variants)}",
        ]
        for task, tc in (("cue", self.cue_train), ("scope", self.scope_train)):
            lines += [
                f"{task}.epochs={tc.epochs}",
                f"{task}.batch_size={tc.batch_size}",
                f"{task}.lr0={tc.lr0}",
                f"{task}.decay_every={tc.decay_every}",
                f"{task}.decay_factor={tc.decay_factor}",
                f"{task}.patience={tc.patience}",
                f"{task}.early_stopping={str(tc.early_stopping).lower()}",
            ]
        return sorted(lines)


def _task_train_config(values: dict, task: str, seed: int) -> TrainConfig:
    try:
        return TrainConfig(
            epochs=values[f"{task}.epochs"],
            batch_size=values[f"{task}.batch_size"],
            lr0=values[f"{task}.lr0"],
            decay_every=values[f"{task}.decay_every"],
            decay_factor=values[f"{task}.decay_factor"],
            early_stopping=values[f"{task}.early_stopping"],
            patience=values[f"{task}.patience"],
            seed=seed,
            embed_dim=values["embed_dim"],
            units=values["units"],
            embeddings_trainable=values["embeddings_trainable"],
            max_len=values["max_len"],
        )
    except ValueError as exc:
        raise UsageError(f"{task} training settings: {exc}") from None


def _known(variant: str, task: str) -> str:
    table = CUE_VARIANTS if task == "cue" else SCOPE_VARIANTS
    if variant not in table:
        raise UsageError(f"unknown {task} variant {variant!r}; pick from {sorted(table)}")
    return variant


def resolve_config(args, need_corpus: bool = False, need_out: bool = False) -> ExperimentConfig:
    """Merge defaults < config file < NEGSCOPE_OUT < command-line flags."""
    values = dict(DEFAULTS)
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    env_out = os.environ.get(OUT_ENV_VAR)
    if env_out:
        values["out"] = env_out
    for key in ("corpus", "embeddings", "out"):
        flag = getattr(args, key, None)
        if flag:
            values[key] = flag
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed

    config = ExperimentConfig(
        corpus=values.get("corpus"),
        embeddings=values.get("embeddings"),
        out=values.get("out"),
        seed=values["seed"],
        cue_variant=values["cue.variant"],
        scope_variants=values["scope.variants"],
        cue_train=_task_train_config(values, "cue", values["seed"]),
        scope_train=_task_train_config(values, "scope", values["seed"]),
    )

    _known(config.cue_variant, "cue")
    for variant in config.scope_variants:
        _known(variant, "scope")
    if need_corpus:
        if not config.corpus:
            raise UsageError("no corpus given (use --corpus or the config file)")
        if not os.path.isfile(config.corpus):
            raise UsageError(f"corpus file not found: {config.corpus}")
    if config.embeddings and not os.path.isfile(config.embeddings):
        raise UsageError(f"embeddings file not found: {config.embeddings}")
    if need_out and not config.out:
        raise UsageError(
            f"no output directory given (use --out, the config file, or ${OUT_ENV_VAR})"
        )
    return config


# ---------------------------------------------------------------------------
# run plumbing

class RunLog:
    """Deterministic run log: plain lines, no timestamps, mirrored to the
    logging stream for live feedback."""

    def __init__(self):
        self.lines: list[str] = []

    def __call__(self, message: str) -> None:
        self.lines.append(message)
        log.info("%s", message)

    def write(self, path) -> None:
        Path(path).write_text("\n".join(self.lines) + "\n", encoding="utf-8")


@dataclass
class LoadedCorpus:
    train: list
    validation: list
    test: list
    vocab: Vocabulary
    matrix: np.ndarray | None


def load_corpus(config: ExperimentConfig, emit) -> LoadedCorpus:
    instances = parse_column_file(config.corpus)
    stats = corpus_stats(instances)
    for key in sorted(stats):
        value = stats[key]
        emit(f"corpus.{key}={value:.4f}" if isinstance(value, float) else f"corpus.{key}={value}")

    split = split_dataset(instances, seed=config.seed)
    vocab = build_vocab(split.train)
    emit(f"split.train={len(split.train)} split.validation={len(split.validation)} "
         f"split.test={len(split.test)} vocab.size={vocab.size}")

    matrix = None
    if config.embeddings:
        matrix, coverage = load_embedding_file(
            config.embeddings, vocab, expected_dim=config.cue_train.embed_dim
        )
        emit(f"embeddings.covered={len(coverage.covered)} "
             f"embeddings.missing={len(coverage.missing)} "
             f"embeddings.type_oov_rate={coverage.type_oov_rate:.4f}")

    # only training instances are cut; validation and test are scored whole
    max_len = config.cue_train.max_len
    cut = sum(1 for inst in split.train if len(inst.sentence.tokens) > max_len)
    emit(f"train.max_len={max_len} train.cut_instances={cut}")
    return LoadedCorpus(
        encode_instances(split.train, vocab, max_len),
        encode_instances(split.validation, vocab),
        encode_instances(split.test, vocab),
        vocab,
        matrix,
    )


def prepare_run_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(
        "\n".join(config.snapshot_lines()) + "\n", encoding="utf-8"
    )
    return out


def write_blocks(path, blocks) -> None:
    Path(path).write_text(format_column_blocks(blocks), encoding="utf-8")


def write_and_score(out: Path, stem: str, rows, gold_path) -> EvaluationResult:
    """Write `<stem>_pred.col`, score it against the gold file and write
    `<stem>_report.txt`."""
    pred_path = out / f"{stem}_pred.col"
    write_blocks(pred_path, rows)
    result = evaluate_files(pred_path, gold_path)
    (out / f"{stem}_report.txt").write_text(result.text, encoding="utf-8")
    return result


# ---------------------------------------------------------------------------
# evaluation of prediction files

@dataclass
class EvaluationResult:
    text: str
    instances: int
    cue: CueReport
    scope: ScopeReport | None


def evaluate_files(pred_path, gold_path) -> EvaluationResult:
    """Score a prediction file against a gold file. Both must hold the same
    sentences in the same order; cue metrics always apply and scope metrics
    apply when every prediction block carries a scope column (some but not
    all is an error)."""
    pred_blocks = read_tag_blocks(pred_path)
    gold_blocks = read_tag_blocks(gold_path)
    if len(pred_blocks) != len(gold_blocks):
        raise CorpusError(
            f"{pred_path} has {len(pred_blocks)} instances, "
            f"{gold_path} has {len(gold_blocks)}"
        )
    for i, (p, g) in enumerate(zip(pred_blocks, gold_blocks)):
        if p.tokens != g.tokens:
            name = p.source_id or g.source_id or f"index {i}"
            raise CorpusError(f"instance {i} ({name}): token sequences differ")

    lines = [f"instances={len(pred_blocks)}"]
    cue_report = evaluate_cue(
        [p.cue_tags for p in pred_blocks], [g.cue_tags for g in gold_blocks]
    )
    lines += cue_report.kv_lines("cue")

    scope_report = None
    with_scope = sum(1 for p in pred_blocks if p.scope_tags)
    if 0 < with_scope < len(pred_blocks):
        raise CorpusError(
            f"{pred_path}: {len(pred_blocks) - with_scope} of {len(pred_blocks)} "
            "instances lack the scope column the others carry"
        )
    if with_scope:
        if not all(g.scope_tags for g in gold_blocks):
            raise CorpusError(f"{gold_path}: no scope column to score against")
        scope_report = evaluate_scope(
            [p.scope_tags for p in pred_blocks], [g.scope_tags for g in gold_blocks]
        )
        lines += scope_report.kv_lines("scope")

    return EvaluationResult(
        "\n".join(lines) + "\n", len(pred_blocks), cue_report, scope_report
    )


# ---------------------------------------------------------------------------
# model stages shared by the commands

def build_cue_tagger(config: ExperimentConfig, vocab_size: int, matrix) -> Tagger:
    cfg = cue_config(config.cue_variant, vocab_size,
                     config.cue_train.embed_dim, config.cue_train.units)
    if config.cue_train.embeddings_trainable and not cfg.embeddings_trainable:
        cfg = replace(cfg, embeddings_trainable=True)
    return Tagger.build(cfg, np.random.default_rng([config.seed, 2]), matrix)


def scope_base(variant: str) -> str:
    """The trained architecture behind a scope variant; -post adds only the
    prediction-time smoother, so it shares its base model's weights."""
    return variant[:-5] if variant.endswith("-post") else variant


_SCOPE_STREAMS = {"bilstm": 3, "bilstm-crf": 4}


def build_scope_tagger(config: ExperimentConfig, variant: str, vocab_size: int,
                       matrix) -> Tagger:
    cfg = scope_config(variant, vocab_size,
                       config.scope_train.embed_dim, config.scope_train.units)
    if config.scope_train.embeddings_trainable:
        cfg = replace(cfg, embeddings_trainable=True)
    rng = np.random.default_rng([config.seed, _SCOPE_STREAMS[scope_base(variant)]])
    return Tagger.build(cfg, rng, matrix)


def predict_cues(tagger: Tagger, data) -> list[list[str]]:
    return tagger.predict_tags([inst.token_ids for inst in data])


def predict_scopes(tagger: Tagger, token_ids, cue_tags, smooth: bool) -> list[list[str]]:
    """Scope tags per sentence given its cue tags, in one batched call. A
    sentence without a cue gets an all-O row and no scope-model input.
    Smoothing needs at least one cue bit, which that guarantees."""
    bits = [np.array(cue_vector(tags), dtype=np.int64) for tags in cue_tags]
    out = [["O"] * len(ids) for ids in token_ids]
    todo = [i for i, b in enumerate(bits) if b.any()]
    tagged = tagger.predict_tags([token_ids[i] for i in todo], [bits[i] for i in todo])
    for i, tags in zip(todo, tagged):
        out[i] = postprocess(tags, bits[i]) if smooth else tags
    return out


def run_cue_stage(config: ExperimentConfig, corpus: LoadedCorpus, out: Path,
                  emit) -> Tagger:
    """Train the cue tagger, checkpoint it, and score it on the validation
    and test splits with all artifacts persisted."""
    tagger = build_cue_tagger(config, corpus.vocab.size, corpus.matrix)
    decoder = "viterbi" if tagger.crf is not None else "argmax"
    emit(f"task=cue variant={config.cue_variant} decoder={decoder}")
    history = train(tagger, corpus.train, corpus.validation, config.cue_train,
                    log_line=lambda msg: emit(f"cue {msg}"))
    emit(f"cue best_epoch={history.best_epoch} stopped_early={history.stopped_early}")
    save_checkpoint(out / "cue.npz", tagger, corpus.vocab.content_hash())

    for name, data in (("val", corpus.validation), ("test", corpus.test)):
        gold_path = out / f"cue_{name}_gold.col"
        write_blocks(gold_path, [
            (inst.source_id, inst.tokens, inst.cue_tags, None) for inst in data
        ])
        result = write_and_score(out, f"cue_{name}", [
            (inst.source_id, inst.tokens, tags, None)
            for inst, tags in zip(data, predict_cues(tagger, data))
        ], gold_path)
        emit(f"cue.{name}.f1={metric_str(result.cue.token.f1)} "
             f"cue.{name}.pecm={metric_str(result.cue.pecm)}")
    return tagger


def negation_subset(data, what: str):
    subset = [inst for inst in data if inst.is_negation]
    if not subset:
        raise CorpusError(f"empty Task-2 {what} set: no negation instances")
    return subset


def run_scope_training(config: ExperimentConfig, corpus: LoadedCorpus, variant: str,
                       emit) -> Tagger:
    """Train one scope architecture on gold cue inputs."""
    train_data = negation_subset(corpus.train, "training")
    val_data = [inst for inst in corpus.validation if inst.is_negation]
    tagger = build_scope_tagger(config, variant, corpus.vocab.size, corpus.matrix)
    decoder = "viterbi" if tagger.crf is not None else "argmax"
    emit(f"task=scope variant={variant} decoder={decoder} cue_inputs=gold")
    history = train(tagger, train_data, val_data, config.scope_train,
                    log_line=lambda msg: emit(f"scope {msg}"))
    emit(f"scope best_epoch={history.best_epoch} stopped_early={history.stopped_early}")
    return tagger


# ---------------------------------------------------------------------------
# commands

def cmd_train_cue(args) -> int:
    config = resolve_config(args, need_corpus=True, need_out=True)
    if args.variant:
        config.cue_variant = _known(args.variant, "cue")
    out = prepare_run_dir(config)
    emit = RunLog()
    corpus = load_corpus(config, emit)
    corpus.vocab.save(out / "vocab.json")
    run_cue_stage(config, corpus, out, emit)
    emit.write(out / "run.log")
    return 0


def cmd_train_scope(args) -> int:
    config = resolve_config(args, need_corpus=True, need_out=True)
    if args.variant:
        variant = args.variant
    elif len(config.scope_variants) == 1:
        variant = config.scope_variants[0]
    else:
        raise UsageError(
            f"config selects several scope variants {config.scope_variants}; "
            "pick one with --variant"
        )
    config.scope_variants = (_known(variant, "scope"),)
    out = prepare_run_dir(config)
    cue_tagger = cue_meta = None
    if args.cue_input == "pred":
        checkpoint = out / "cue.npz"
        if not checkpoint.is_file():
            raise UsageError(
                f"--cue-input pred needs a trained cue model at {checkpoint}"
            )
        cue_tagger, cue_meta = load_checkpoint(checkpoint)

    emit = RunLog()
    emit(f"cue_input={args.cue_input}")
    corpus = load_corpus(config, emit)
    corpus.vocab.save(out / "vocab.json")
    if cue_meta is not None:
        _check_vocab_hash(out / "cue.npz", cue_meta, corpus.vocab)
    tagger = run_scope_training(config, corpus, variant, emit)
    save_checkpoint(out / f"scope_{variant}.npz", tagger, corpus.vocab.content_hash())
    smooth = tagger.config.smooth_predictions

    for name, data in (("val", corpus.validation), ("test", corpus.test)):
        subset = negation_subset(data, name)
        if cue_tagger is None:
            cue_rows = [list(inst.cue_tags) for inst in subset]
        else:
            cue_rows = predict_cues(cue_tagger, subset)
            for inst, ctags in zip(subset, cue_rows):
                emit(f"pred_cues id={inst.source_id} "
                     f"bits={''.join(str(b) for b in cue_vector(ctags))}")
        scope_rows = predict_scopes(
            tagger, [inst.token_ids for inst in subset], cue_rows, smooth
        )
        gold_path = out / f"scope_{name}_gold.col"
        write_blocks(gold_path, [
            (inst.source_id, inst.tokens, inst.cue_tags, inst.scope_tags)
            for inst in subset
        ])
        result = write_and_score(out, f"scope_{name}", [
            (inst.source_id, inst.tokens, ctags, stags)
            for inst, ctags, stags in zip(subset, cue_rows, scope_rows)
        ], gold_path)
        emit(f"scope.{name}.f1={metric_str(result.scope.token.f1)} "
             f"scope.{name}.pcs={metric_str(result.scope.pcs)} "
             f"scope.{name}.pcp={metric_str(result.scope.pcp)}")
    emit.write(out / "run.log")
    return 0


def _difference(gold_value: float, pred_value: float) -> float:
    if math.isnan(gold_value) or math.isnan(pred_value):
        return math.nan
    return gold_value - pred_value


def cmd_experiment(args) -> int:
    config = resolve_config(args, need_corpus=True, need_out=True)
    out = prepare_run_dir(config)
    emit = RunLog()
    corpus = load_corpus(config, emit)
    corpus.vocab.save(out / "vocab.json")

    cue_tagger = run_cue_stage(config, corpus, out, emit)

    # one trained model per distinct base; -post reuses its base's weights
    scope_models = {}
    for base in dict.fromkeys(scope_base(v) for v in config.scope_variants):
        scope_models[base] = run_scope_training(config, corpus, base, emit)
        save_checkpoint(out / f"scope_{base}.npz", scope_models[base],
                        corpus.vocab.content_hash())

    # both conditions are evaluated on tp + fn + fp, fixed by the cue model
    test = corpus.test
    pred_tags = predict_cues(cue_tagger, test)
    gold_flags = [inst.is_negation for inst in test]
    pred_flags = [any(cue_vector(tags)) for tags in pred_tags]
    testset = build_task2_testset(gold_flags, pred_flags, test)
    emit(f"testset.tp={len(testset.tp)} testset.fn={len(testset.fn)} "
         f"testset.fp={len(testset.fp)} testset.tn={len(testset.tn)} "
         f"testset.size={len(testset.test_indices)}")
    for condition in ("gold", "pred"):
        covered = testset.model_indices(condition) | testset.empty_indices(condition)
        identical = covered == set(testset.test_indices)
        emit(f"condition={condition} covers_identical_test_set={str(identical).lower()}")
        if not identical:
            raise RuntimeError(f"{condition} condition does not cover the test set")

    indices = testset.test_indices
    gold_path = out / "scope_test_gold.col"
    write_blocks(gold_path, [
        (test[i].source_id, test[i].tokens, test[i].cue_tags, test[i].scope_tags)
        for i in indices
    ])

    summary = [l for l in emit.lines if l.startswith("testset.")]
    table_rows = []
    for variant in config.scope_variants:
        tagger = scope_models[scope_base(variant)]
        smooth = variant.endswith("-post")
        scores = {}
        for condition in ("gold", "pred"):
            # the model runs on exactly the sentences with a cue under this
            # condition; the rest (fp under gold, fn under pred) get all O
            cue_rows = [list(test[i].cue_tags) if condition == "gold" else pred_tags[i]
                        for i in indices]
            scope_rows = predict_scopes(
                tagger, [test[i].token_ids for i in indices], cue_rows, smooth
            )
            result = write_and_score(out, f"scope_{variant}_{condition}cue", [
                (test[i].source_id, test[i].tokens, ctags, stags)
                for i, ctags, stags in zip(indices, cue_rows, scope_rows)
            ], gold_path)
            scores[condition] = result.scope
            summary += [
                f"scope.{variant}.{condition}cue.f1={metric_str(result.scope.token.f1)}",
                f"scope.{variant}.{condition}cue.pcs={metric_str(result.scope.pcs)}",
                f"scope.{variant}.{condition}cue.pcp={metric_str(result.scope.pcp)}",
            ]
        diff = _difference(scores["gold"].token.f1, scores["pred"].token.f1)
        summary.append(f"scope.{variant}.difference={metric_str(diff)}")
        table_rows.append("\t".join([
            variant,
            metric_str(scores["gold"].token.f1), metric_str(scores["pred"].token.f1),
            metric_str(diff),
            metric_str(scores["gold"].pcs), metric_str(scores["pred"].pcs),
            metric_str(scores["gold"].pcp), metric_str(scores["pred"].pcp),
        ]))
        emit(f"scope.{variant}.difference={metric_str(diff)}")

    header = "variant\tgold_f1\tpred_f1\tdifference\tgold_pcs\tpred_pcs\tgold_pcp\tpred_pcp"
    (out / "comparison.tsv").write_text(
        "\n".join([header] + table_rows) + "\n", encoding="utf-8"
    )
    (out / "report.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    emit.write(out / "run.log")
    return 0


def _load_run_models(run_dir: Path, variant: str | None):
    """Checkpoints and vocabulary from a finished run directory."""
    vocab_path = run_dir / "vocab.json"
    if not vocab_path.is_file():
        raise UsageError(f"no vocab.json in {run_dir}")
    vocab = Vocabulary.load(vocab_path)

    cue_tagger = None
    if (run_dir / "cue.npz").is_file():
        cue_tagger, meta = load_checkpoint(run_dir / "cue.npz")
        _check_vocab_hash(run_dir / "cue.npz", meta, vocab)

    scope_paths = sorted(run_dir.glob("scope_*.npz"))
    scope_tagger = None
    if variant is not None:
        wanted = run_dir / f"scope_{variant}.npz"
        if not wanted.is_file():
            raise UsageError(f"no checkpoint {wanted}")
        scope_paths = [wanted]
    if len(scope_paths) > 1:
        names = [p.stem.removeprefix("scope_") for p in scope_paths]
        raise UsageError(f"several scope checkpoints {names}; pick one with --variant")
    if scope_paths:
        scope_tagger, meta = load_checkpoint(scope_paths[0])
        _check_vocab_hash(scope_paths[0], meta, vocab)
    return vocab, cue_tagger, scope_tagger


def _check_vocab_hash(path, meta: dict, vocab: Vocabulary) -> None:
    if meta["vocab_sha256"] != vocab.content_hash():
        raise RuntimeError(
            f"{path}: checkpoint was trained with a different vocabulary"
        )


def cmd_predict(args) -> int:
    config = resolve_config(args, need_out=True)
    run_dir = Path(config.out)
    vocab, cue_tagger, scope_tagger = _load_run_models(run_dir, args.variant)
    if cue_tagger is None and args.cue_input == "pred":
        raise UsageError(f"no cue.npz in {run_dir}; use --cue-input gold")
    if cue_tagger is None and scope_tagger is None:
        raise UsageError(f"no checkpoints in {run_dir}")

    if args.raw:
        text = Path(args.input).read_text(encoding="utf-8")
        sentences = [tokenize(line) for line in text.splitlines() if line.strip()]
        if not sentences:
            raise CorpusError(f"{args.input}: no sentences found")
        log.info("tokenized %d raw sentences from %s", len(sentences), args.input)
        blocks_in = [("", tuple(tokens), None) for tokens in sentences]
    else:
        blocks_in = [
            (b.source_id, b.tokens, b.cue_tags) for b in read_tag_blocks(args.input)
        ]

    smooth = args.postprocess or (
        scope_tagger is not None and scope_tagger.config.smooth_predictions
    )
    ids = [np.array([vocab.lookup(t) for t in tokens], dtype=np.int64)
           for _, tokens, _ in blocks_in]
    if args.cue_input == "gold":
        if any(ctags is None for _, _, ctags in blocks_in):
            raise UsageError("--cue-input gold needs a cue column in the input")
        cue_rows = [list(ctags) for _, _, ctags in blocks_in]
    else:
        cue_rows = cue_tagger.predict_tags(ids)
    scope_rows = [None] * len(blocks_in)
    if scope_tagger is not None:
        scope_rows = predict_scopes(scope_tagger, ids, cue_rows, smooth)
    out_blocks = [(source_id, tokens, ctags, stags) for (source_id, tokens, _), ctags, stags
                  in zip(blocks_in, cue_rows, scope_rows)]

    text = format_column_blocks(out_blocks)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    result = evaluate_files(args.predictions, args.gold)
    sys.stdout.write(result.text)
    if args.out:
        Path(args.out).write_text(result.text, encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub) -> None:
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--seed", type=int, help="master seed for split, init, shuffling")
    sub.add_argument("--corpus", help="3-column gold corpus file")
    sub.add_argument("--embeddings", help="text embedding file '<count> <dim>' header")
    sub.add_argument("--out", help=f"run directory (${OUT_ENV_VAR} overrides the config file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negscope",
        description="Two-step negation resolution: cue tagging, then scope resolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-cue", help="train and score a cue tagger")
    _add_common(p)
    p.add_argument("--variant", help=f"one of {sorted(CUE_VARIANTS)}")
    p.set_defaults(func=cmd_train_cue)

    p = sub.add_parser("train-scope", help="train and score a scope tagger (gold cue inputs)")
    _add_common(p)
    p.add_argument("--variant", help=f"one of {sorted(SCOPE_VARIANTS)}")
    p.add_argument("--cue-input", choices=("gold", "pred"), default="gold",
                   help="cue source for test-time inputs (pred needs cue.npz in --out)")
    p.set_defaults(func=cmd_train_scope)

    p = sub.add_parser("experiment", help="full gold-vs-predicted cue comparison")
    _add_common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("predict", help="tag a file with a run's checkpoints")
    _add_common(p)
    p.add_argument("input", help="column file, or raw text with --raw")
    p.add_argument("output", nargs="?", help="prediction file (default: stdout)")
    p.add_argument("--variant", help="scope checkpoint to use when several exist")
    p.add_argument("--cue-input", choices=("gold", "pred"), default="pred",
                   help="feed gold cue column or the cue model's predictions")
    p.add_argument("--postprocess", action="store_true",
                   help="smooth scope predictions into one continuous block")
    p.add_argument("--raw", action="store_true",
                   help="input is raw text, one sentence per line; tokenize first")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction file against gold")
    p.add_argument("predictions")
    p.add_argument("gold")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
