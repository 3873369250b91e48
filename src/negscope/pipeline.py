"""Command-line front end: train the cue tagger, train the scope tagger on
gold cues, tag new text, score prediction files, and run the two-condition
experiment that compares scope resolution under gold versus predicted cues
on the identical tp + fn + fp sentence set.

A resolved config is one dict keyed by the config-file names of `DEFAULTS`,
and its snapshot lists every key, so `--config config.txt` reproduces the
run. Every run directory is self-contained: that snapshot, the
vocabulary, checkpoints, prediction files next to their gold subsets, the
metric reports, and a plain-text run log. A run scores the blocks it
writes without reading them back: each `<stem>_report.txt` is byte for byte
what `negscope evaluate <stem>_pred.col <gold>` prints, with `<gold>` one of
`cue_{val,test}_gold.col`, `scope_{val,test}_gold.col` (train-scope) and
`scope_test_gold.col` (experiment). The same seed plus the same config
reproduces the whole run.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import (
    CorpusError,
    Sentence,
    TagBlock,
    Vocabulary,
    build_vocab,
    corpus_stat_lines,
    encode_instances,
    format_column_blocks,
    load_embedding_file,
    open_text,
    parse_column_file,
    read_tag_blocks,
    split_dataset,
    tokenize,
)
from .evaluation import (
    CueReport,
    ScopeReport,
    evaluate_cue,
    evaluate_scope,
    metric_str,
    task2_groups,
)
from .labeling import cue_vector, postprocess
from .models import (
    VARIANTS,
    Tagger,
    TaggerConfig,
    check_variant,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
    scope_base,
    smooth_predictions,
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
    repeated = [v for i, v in enumerate(items) if v in items[:i]]
    if repeated:
        raise ValueError(f"variant {repeated[0]!r} listed twice")
    return items


# the per-task keys, `cue.<key>` and `scope.<key>`: every TrainConfig field
# but the shared seed; the defaults are TrainConfig's, except that the CLI
# stops early
TASK_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")
_TASK_DEFAULTS = TrainConfig(early_stopping=True)

# every config key and its default; a config file may set any subset and
# nothing else, and each value is parsed as its default's type (None: a path)
DEFAULTS = {
    "corpus": None,
    "embeddings": None,
    "out": None,
    "seed": 0,
    "max_len": 100,
    "embed_dim": 200,
    "units": 200,
    "embeddings_trainable": False,
    "cue.variant": "bilstm-crf",
    "scope.variants": ("bilstm",),
    **{f"{task}.{name}": getattr(_TASK_DEFAULTS, name)
       for task in ("cue", "scope") for name in TASK_KEYS},
}
_PARSERS = {bool: _bool, tuple: _variant_list, type(None): str}
CONFIG_KEYS = {key: _PARSERS.get(type(value), type(value)) for key, value in DEFAULTS.items()}


def parse_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values, set_on = {}, {}
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
        if key in set_on:
            raise UsageError(f"{path}:{lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _config_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def snapshot_lines(config: dict) -> list[str]:
    """Every config key as a sorted key=value line: a config file that
    reproduces the run."""
    return sorted(f"{key}={_config_text(value)}" for key, value in config.items())


def train_config(config: dict, task: str) -> TrainConfig:
    """The training settings of `task` ("cue" or "scope") in a config."""
    try:
        return TrainConfig(seed=config["seed"],
                           **{name: config[f"{task}.{name}"] for name in TASK_KEYS})
    except ValueError as exc:
        raise UsageError(f"{task} training settings: {exc}") from None


def _known(variant: str, task: str) -> str:
    try:
        return check_variant(task, variant)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def resolve_config(args, need_corpus: bool = False, need_out: bool = False) -> dict:
    """Merge defaults < config file < NEGSCOPE_OUT < command-line flags into
    one value per `DEFAULTS` key, and check the result."""
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
    for key in ("max_len", "embed_dim", "units"):
        if values[key] < 1:
            raise UsageError(f"{key} must be >= 1, got {values[key]}")
    if values["seed"] < 0:
        raise UsageError(f"seed must be >= 0, got {values['seed']}")

    for task in ("cue", "scope"):
        train_config(values, task)
    _known(values["cue.variant"], "cue")
    for variant in values["scope.variants"]:
        _known(variant, "scope")
    if need_corpus:
        if not values["corpus"]:
            raise UsageError("no corpus given (use --corpus or the config file)")
        if not os.path.isfile(values["corpus"]):
            raise UsageError(f"corpus file not found: {values['corpus']}")
    if values["embeddings"] and not os.path.isfile(values["embeddings"]):
        raise UsageError(f"embeddings file not found: {values['embeddings']}")
    if need_out and not values["out"]:
        raise UsageError(
            f"no output directory given (use --out, the config file, or ${OUT_ENV_VAR})"
        )
    return values


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


def load_corpus(config: dict, emit) -> LoadedCorpus:
    instances = parse_column_file(config["corpus"])
    for line in corpus_stat_lines(instances):
        emit(line)

    split = split_dataset(instances, seed=config["seed"])
    vocab = build_vocab(split.train)
    emit(f"split.train={len(split.train)} split.validation={len(split.validation)} "
         f"split.test={len(split.test)} vocab.size={vocab.size}")

    matrix = None
    if config["embeddings"]:
        matrix, coverage = load_embedding_file(
            config["embeddings"], vocab, expected_dim=config["embed_dim"]
        )
        emit(f"embeddings.covered={len(coverage.covered)} "
             f"embeddings.missing={len(coverage.missing)} "
             f"embeddings.type_oov_rate={coverage.type_oov_rate:.4f}")

    # only training instances are cut; validation and test are scored whole
    max_len = config["max_len"]
    cut = sum(1 for inst in split.train if len(inst.sentence.tokens) > max_len)
    emit(f"train.max_len={max_len} train.cut_instances={cut}")
    return LoadedCorpus(
        encode_instances(split.train, vocab, max_len),
        encode_instances(split.validation, vocab),
        encode_instances(split.test, vocab),
        vocab,
        matrix,
    )


def load_run(config: dict, first_line: str | None = None) -> tuple[RunLog, LoadedCorpus]:
    """Start the run log (with `first_line`, if given); load the corpus."""
    emit = RunLog()
    if first_line:
        emit(first_line)
    return emit, load_corpus(config, emit)


def save_run(config: dict, corpus: LoadedCorpus) -> Path:
    """Write the run directory's config snapshot and corpus vocabulary."""
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text("\n".join(snapshot_lines(config)) + "\n", encoding="utf-8")
    corpus.vocab.save(out / "vocab.json")
    return out


def column_blocks(data, cue_rows, scope_rows=None) -> list[TagBlock]:
    """Column-file blocks of instances (anything with a source_id and
    tokens) with the given tag rows; without scope rows they are cue-only."""
    if scope_rows is None:
        scope_rows = [None] * len(data)
    return [TagBlock(inst.source_id, inst.tokens, ctags, stags)
            for inst, ctags, stags in zip(data, cue_rows, scope_rows)]


def write_blocks(path, blocks) -> None:
    Path(path).write_text(format_column_blocks(blocks), encoding="utf-8")


def write_gold(path: Path, data, with_scope: bool) -> list[TagBlock]:
    blocks = column_blocks(data, [inst.cue_tags for inst in data],
                           [inst.scope_tags for inst in data] if with_scope else None)
    write_blocks(path, blocks)
    return blocks


def write_and_score(out: Path, stem: str, blocks, gold_blocks) -> EvaluationResult:
    """Write `<stem>_pred.col`, score its blocks against the gold blocks
    in memory and write `<stem>_report.txt`."""
    write_blocks(out / f"{stem}_pred.col", blocks)
    result = score_blocks(blocks, gold_blocks)
    (out / f"{stem}_report.txt").write_text(result.text, encoding="utf-8")
    return result


# ---------------------------------------------------------------------------
# scoring

@dataclass
class EvaluationResult:
    text: str
    instances: int
    cue: CueReport
    scope: ScopeReport | None


def score_blocks(pred_blocks, gold_blocks) -> EvaluationResult:
    """Score non-empty prediction blocks against the gold blocks of the same
    sentences: the report is an `instances=` line, the cue metrics and, when
    the predictions carry a scope column, the scope metrics."""
    *_, pred_cues, pred_scopes = zip(*pred_blocks)
    *_, gold_cues, gold_scopes = zip(*gold_blocks)
    cue = evaluate_cue(pred_cues, gold_cues)
    scope = None if pred_scopes[0] is None else evaluate_scope(pred_scopes, gold_scopes)
    lines = [f"instances={len(pred_blocks)}", *cue.kv_lines(), *(scope.kv_lines() if scope else ())]
    return EvaluationResult("\n".join(lines) + "\n", len(pred_blocks), cue, scope)


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
    with_scope = sum(1 for p in pred_blocks if p.scope_tags)
    if 0 < with_scope < len(pred_blocks):
        raise CorpusError(
            f"{pred_path}: {len(pred_blocks) - with_scope} of {len(pred_blocks)} "
            "instances lack the scope column the others carry"
        )
    if with_scope and not all(g.scope_tags for g in gold_blocks):
        raise CorpusError(f"{gold_path}: no scope column to score against")
    return score_blocks(pred_blocks, gold_blocks)


def headline_items(prefix: str, report: CueReport | ScopeReport) -> list[str]:
    """`<prefix>.<metric>=<value>` for each of the report's headline metrics."""
    return [f"{prefix}.{name}={metric_str(value)}" for name, value in report.headline().items()]


# ---------------------------------------------------------------------------
# model stages shared by the commands

# seed stream of each trained architecture's initial weights
_STREAMS = {"cue": 2, "bilstm": 3, "bilstm-crf": 4}


def train_tagger(config: dict, corpus: LoadedCorpus, task: str, variant: str,
                 train_data, val_data, out: Path, emit, note: str = "") -> Tagger:
    """Build a fresh tagger for the corpus (the run's embeddings_trainable
    may widen a variant's frozen embeddings), train it with the task's
    settings, log its wiring (plus `note`) and best epoch, and save it as
    `cue.npz` or `scope_<variant>.npz`."""
    cfg = TaggerConfig(task, variant, corpus.vocab.size, config["embed_dim"], config["units"],
                       config["embeddings_trainable"])
    stream = _STREAMS["cue" if task == "cue" else scope_base(variant)]
    tagger = Tagger.build(cfg, np.random.default_rng([config["seed"], stream]), corpus.matrix)
    decoder = "viterbi" if tagger.crf is not None else "argmax"
    emit(f"task={task} variant={variant} decoder={decoder}{note}")
    history = train(tagger, train_data, val_data, train_config(config, task),
                    log_line=lambda msg: emit(f"{task} {msg}"))
    emit(f"{task} best_epoch={history.best_epoch} stopped_early={history.stopped_early}")
    name = "cue.npz" if task == "cue" else f"scope_{variant}.npz"
    save_checkpoint(out / name, tagger, corpus.vocab.content_hash())
    return tagger


def predict_scopes(tagger: Tagger, token_ids, cue_tags) -> list[list[str]]:
    """Scope tags per sentence given its cue tags, in one batched call. A
    sentence without a cue gets an all-O row and no scope-model input."""
    bits = [np.array(cue_vector(tags), dtype=np.int64) for tags in cue_tags]
    out = [["O"] * len(ids) for ids in token_ids]
    todo = [i for i, b in enumerate(bits) if b.any()]
    tagged = tagger.predict_tags([token_ids[i] for i in todo], [bits[i] for i in todo])
    for i, tags in zip(todo, tagged):
        out[i] = tags
    return out


def smooth_scopes(scope_rows, cue_tags) -> list[list[str]]:
    """predict_scopes' rows with every row that has a cue smoothed
    (`labeling.postprocess`); the all-O rows of cue-less sentences stay."""
    bits = [cue_vector(tags) for tags in cue_tags]
    return [postprocess(tags, b) if any(b) else tags for tags, b in zip(scope_rows, bits)]


def score_scopes(out: Path, stem: str, variant: str, cue_rows, scope_rows,
                 gold_blocks) -> ScopeReport:
    """Write the scope rows of the gold blocks' sentences under the cue
    rows, smoothed if the variant smooths, and score them (`write_and_score`)."""
    if smooth_predictions(variant):
        scope_rows = smooth_scopes(scope_rows, cue_rows)
    blocks = column_blocks(gold_blocks, cue_rows, scope_rows)
    return write_and_score(out, stem, blocks, gold_blocks).scope


def run_cue_stage(config: dict, corpus: LoadedCorpus, out: Path, emit) -> list[list[str]]:
    """Train the cue tagger, checkpoint it, and score it on the validation
    and test splits with all artifacts persisted. Returns the cue tags it
    predicts for the test split."""
    tagger = train_tagger(config, corpus, "cue", config["cue.variant"], corpus.train,
                          corpus.validation, out, emit)
    for name, data in (("val", corpus.validation), ("test", corpus.test)):
        gold_blocks = write_gold(out / f"cue_{name}_gold.col", data, with_scope=False)
        cue_rows = tagger.predict_tags([inst.token_ids for inst in data])
        result = write_and_score(out, f"cue_{name}", column_blocks(data, cue_rows), gold_blocks)
        emit(" ".join(headline_items(f"cue.{name}", result.cue)))
    return cue_rows


def negation_subset(data, what: str):
    subset = [inst for inst in data if inst.is_negation]
    if not subset:
        raise CorpusError(f"empty Task-2 {what} set: no negation instances")
    return subset


def run_scope_training(config: dict, corpus: LoadedCorpus, variant: str, train_data,
                       out: Path, emit) -> Tagger:
    """Train one scope architecture on gold cue inputs and checkpoint it."""
    return train_tagger(config, corpus, "scope", variant, train_data,
                        [inst for inst in corpus.validation if inst.is_negation],
                        out, emit, " cue_inputs=gold")


# ---------------------------------------------------------------------------
# commands

def cmd_train_cue(args) -> int:
    config = resolve_config(args, need_corpus=True, need_out=True)
    if args.variant:
        config["cue.variant"] = _known(args.variant, "cue")
    emit, corpus = load_run(config)
    out = save_run(config, corpus)
    run_cue_stage(config, corpus, out, emit)
    emit.write(out / "run.log")
    return 0


def cmd_train_scope(args) -> int:
    config = resolve_config(args, need_corpus=True, need_out=True)
    variants = (args.variant,) if args.variant else config["scope.variants"]
    if len(variants) > 1:
        raise UsageError(f"config selects several scope variants {variants}; "
                         "pick one with --variant")
    variant = _known(variants[0], "scope")
    config["scope.variants"] = (variant,)
    checkpoint = Path(config["out"]) / "cue.npz"
    if args.cue_input == "pred" and not checkpoint.is_file():
        raise UsageError(f"--cue-input pred needs a trained cue model at {checkpoint}")

    # every check (each Task-2 set nonempty, the cue model's vocabulary)
    # comes before the run directory is written
    emit, corpus = load_run(config, f"cue_input={args.cue_input}")
    train_data = negation_subset(corpus.train, "training")
    scored = [(name, negation_subset(data, name))
              for name, data in (("val", corpus.validation), ("test", corpus.test))]
    cue_rows = [[inst.cue_tags for inst in subset] for _, subset in scored]
    if args.cue_input == "pred":  # the cue model is gone before the scope model trains
        _check_checkpoint(checkpoint, corpus.vocab)
        cue_tagger = load_checkpoint(checkpoint)[0]
        cue_rows = [cue_tagger.predict_tags([inst.token_ids for inst in subset])
                    for _, subset in scored]
        del cue_tagger
    out = save_run(config, corpus)
    tagger = run_scope_training(config, corpus, variant, train_data, out, emit)

    for (name, subset), rows in zip(scored, cue_rows):
        if args.cue_input == "pred":
            for inst, ctags in zip(subset, rows):
                emit(f"pred_cues id={inst.source_id} "
                     f"bits={''.join(str(b) for b in cue_vector(ctags))}")
        gold_blocks = write_gold(out / f"scope_{name}_gold.col", subset, with_scope=True)
        scope_rows = predict_scopes(tagger, [inst.token_ids for inst in subset], rows)
        scope = score_scopes(out, f"scope_{name}", variant, rows, scope_rows, gold_blocks)
        emit(" ".join(headline_items(f"scope.{name}", scope)))
    emit.write(out / "run.log")
    return 0


def cmd_experiment(args) -> int:
    config = resolve_config(args, need_corpus=True, need_out=True)
    emit, corpus = load_run(config)
    out = save_run(config, corpus)
    pred_tags = run_cue_stage(config, corpus, out, emit)

    # both conditions are evaluated on tp + fn + fp, fixed by the cue model
    test = corpus.test
    gold_flags = [inst.is_negation for inst in test]
    pred_flags = [any(cue_vector(tags)) for tags in pred_tags]
    groups = task2_groups(gold_flags, pred_flags)
    test_indices = sorted(groups["tp"] + groups["fn"] + groups["fp"])
    if not test_indices:
        raise CorpusError("empty Task-2 test set: no gold or predicted cue in the test split")
    data = [test[i] for i in test_indices]
    # the model runs on exactly the sentences with a cue under each
    # condition; the rest (fp under gold, fn under pred) get all O
    cue_rows = {"gold": [inst.cue_tags for inst in data],
                "pred": [pred_tags[i] for i in test_indices]}

    # one trained model per distinct base, which tags both conditions and
    # is dropped before the next base trains; -post smooths its base's rows
    ids = [inst.token_ids for inst in data]
    train_data = negation_subset(corpus.train, "training")
    scope_rows = {}
    for base in dict.fromkeys(scope_base(v) for v in config["scope.variants"]):
        model = run_scope_training(config, corpus, base, train_data, out, emit)
        for condition, rows in cue_rows.items():
            scope_rows[base, condition] = predict_scopes(model, ids, rows)
        del model

    summary = [" ".join(f"testset.{key}={len(group)}" for key, group in groups.items())
               + f" testset.size={len(test_indices)}"]
    emit(summary[0])
    if not groups["tp"] and not groups["fp"]:
        emit("testset: the cue model predicted no cue in the test split (tp + fp = 0), "
             "so every predcue scope F1 is NaN")
    test_gold = write_gold(out / "scope_test_gold.col", data, with_scope=True)

    table_rows = []
    for variant in config["scope.variants"]:
        scores = {}
        for condition in ("gold", "pred"):
            scope = score_scopes(out, f"scope_{variant}_{condition}cue", variant,
                                 cue_rows[condition], scope_rows[scope_base(variant), condition],
                                 test_gold)
            summary += headline_items(f"scope.{variant}.{condition}cue", scope)
            scores[condition] = scope.headline()
        gold, pred = scores["gold"], scores["pred"]
        # NaN on either side stays NaN
        diff = gold["f1"] - pred["f1"]
        summary.append(f"scope.{variant}.difference={metric_str(diff)}")
        emit(summary[-1])
        cells = [gold["f1"], pred["f1"], diff, gold["pcs"], pred["pcs"], gold["pcp"], pred["pcp"]]
        table_rows.append("\t".join([variant] + [metric_str(v) for v in cells]))

    header = "variant\tgold_f1\tpred_f1\tdifference\tgold_pcs\tpred_pcs\tgold_pcp\tpred_pcp"
    (out / "comparison.tsv").write_text(
        "\n".join([header] + table_rows) + "\n", encoding="utf-8"
    )
    (out / "report.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    emit.write(out / "run.log")
    return 0


def _run_checkpoints(run_dir: Path, variant: str | None):
    """The vocabulary and the cue and scope checkpoint paths (None where
    there is none) of a finished run directory, each checkpoint's metadata
    checked against the vocabulary; no parameter array is read."""
    vocab_path = run_dir / "vocab.json"
    if not vocab_path.is_file():
        raise UsageError(f"no vocab.json in {run_dir}")
    vocab = Vocabulary.load(vocab_path)

    cue_path = run_dir / "cue.npz"
    cue_path = cue_path if cue_path.is_file() else None
    scope_paths = sorted(run_dir.glob("scope_*.npz"))
    if variant is not None:
        wanted = run_dir / f"scope_{variant}.npz"
        if not wanted.is_file():
            # experiment saves a -post variant's weights under its base
            base = run_dir / f"scope_{scope_base(variant)}.npz"
            hint = (f"; {variant} runs {base} with smoothing: use "
                    f"--variant {scope_base(variant)} --postprocess"
                    if base != wanted and base.is_file() else "")
            raise UsageError(f"no checkpoint {wanted}{hint}")
        scope_paths = [wanted]
    if len(scope_paths) > 1:
        names = [p.stem.removeprefix("scope_") for p in scope_paths]
        raise UsageError(f"several scope checkpoints {names}; pick one with --variant")
    scope_path = scope_paths[0] if scope_paths else None
    for path in filter(None, (cue_path, scope_path)):
        _check_checkpoint(path, vocab)
    return vocab, cue_path, scope_path


def _check_checkpoint(path: Path, vocab: Vocabulary) -> None:
    """Check a checkpoint's metadata, and that it was trained on `vocab`."""
    if read_checkpoint_meta(path)[1]["vocab_sha256"] != vocab.content_hash():
        raise RuntimeError(f"{path}: checkpoint was trained with a different vocabulary")


def cmd_predict(args) -> int:
    if args.raw and args.cue_input == "gold":
        raise UsageError("--cue-input gold needs a cue column in the input")
    config = resolve_config(args, need_out=True)
    run_dir = Path(config["out"])
    vocab, cue_path, scope_path = _run_checkpoints(run_dir, args.variant)
    if cue_path is None and args.cue_input == "pred":
        raise UsageError(f"no cue.npz in {run_dir}; use --cue-input gold")
    if cue_path is None and scope_path is None:
        raise UsageError(f"no checkpoints in {run_dir}")
    if scope_path is None and (args.postprocess or args.cue_input == "gold"):
        flag = "--postprocess" if args.postprocess else "--cue-input gold"
        raise UsageError(f"{flag} needs a scope checkpoint (scope_<variant>.npz) in {run_dir}")

    if args.raw:
        with open_text(args.input) as handle:
            sentences = [tokenize(line) for line in handle.read().splitlines() if line.strip()]
        if not sentences:
            raise CorpusError(f"{args.input}: no sentences found")
        log.info("tokenized %d raw sentences from %s", len(sentences), args.input)
        blocks = [Sentence(tuple(tokens)) for tokens in sentences]
    else:
        blocks = read_tag_blocks(args.input)

    # one model at a time: the cue tagger is gone before the scope
    # checkpoint is read, and with gold cues it is never loaded
    ids = [vocab.lookup_all(b.tokens) for b in blocks]
    if args.cue_input == "gold":
        cue_rows = [b.cue_tags for b in blocks]
    else:
        cue_rows = load_checkpoint(cue_path)[0].predict_tags(ids)
    scope_rows = None
    if scope_path is not None:
        scope_tagger = load_checkpoint(scope_path)[0]
        scope_rows = predict_scopes(scope_tagger, ids, cue_rows)
        if args.postprocess or smooth_predictions(scope_tagger.config.variant):
            scope_rows = smooth_scopes(scope_rows, cue_rows)

    text = format_column_blocks(column_blocks(blocks, cue_rows, scope_rows))
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
    p.add_argument("--variant", help=f"one of {sorted(VARIANTS['cue'])}")
    p.set_defaults(func=cmd_train_cue)

    p = sub.add_parser("train-scope", help="train and score a scope tagger (gold cue inputs)")
    _add_common(p)
    p.add_argument("--variant", help=f"one of {sorted(VARIANTS['scope'])}")
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


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep what a minibatch or prediction chunk frees for
    the next one instead of handing it back to the OS to fault in again:
    blocks under 32 MB come from the heap, whose top is trimmed past 1 GB."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
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
