#!/usr/bin/env python3
"""Digest every artifact of a fixed set of negscope commands.

Usage::

    python3 scripts/artifact_digest.py <checkout> <workdir>

Imports negscope from `<checkout>/src` and the synthetic corpus builder
from `<checkout>/tests/helpers.py`, writes
`synthetic_instances(200, seed=21)` as a corpus, and runs twenty-four
commands in process:

  experiment                      run dir exp/ (three scope variants)
  train-cue                       run dir cue/
  train-scope --cue-input pred    run dir cue/, on the cue model above
  train-scope --cue-input gold    run dir scope/ (bilstm-crf)
  train-cue with max_len=4        run dir cut/ (every training instance cut)
  train-cue, embed_dim=200        run dir wide/ (units 48: the LSTM w_in,
                                  38,400 elements, spans two Adam chunks)
  train-scope, embed_dim=200      run dir wide/ (bilstm: the cue-bit
                                  weights w_aux step at 200 times the rate)
  train-cue --variant emb-train   run dir emb-train/ (batches of 2: a step
                                  leaves most embedding columns untouched)
  train-cue --variant emb-crf     run dir emb-crf/ (batches of 2)
  train-cue --variant bilstm      run dir emb-bilstm/ (batches of 2; the
                                  embedding gradient comes through
                                  bilstm_backward)
  predict                         exp/, column input
  predict --raw                   exp/, raw text input
  predict --cue-input gold        exp/
  predict --postprocess           exp/
  predict                         cue/, its cue and scope models
  predict --cue-input gold        scope/
  evaluate --out                  an experiment prediction file
  evaluate --out                  a predict output
  experiment, frozen embeddings   run dir frozen/ (embeddings_trainable=false)
  predict --cue-input pred --postprocess
                                  frozen/, scope bilstm
  evaluate --out                  a two-sentence prediction against a gold
                                  file without a cue or scope, so recall,
                                  PECM and PCS print as NaN
  experiment, pretrained vectors  run dir pretrained/ (frozen embeddings
                                  read from a seeded .vec file; early
                                  stopping at patience 1, the rate halving
                                  every epoch)
  train-scope --variant bilstm-post
                                  run dir post/ (the smoother on the
                                  validation and test predictions)
  train-scope --seed 5            run dir env/, named by NEGSCOPE_OUT
                                  alone, with no --variant under a config
                                  that lists only bilstm-crf

A command's leading `NAME=value` items are environment variables, set
for that command only.

The .vec file holds a seeded vector for four of every five corpus token
types plus one type the corpus lacks, so the embedding log line counts
covered and missing types. The pretrained/ run's validation F1 stops
improving before its last epoch, so its run.log shows early stopping
stop and restore the best epoch.

Every other model trains its embeddings (the config sets
embeddings_trainable=true), so each one's embedding gradient reaches Adam.
The frozen/ and pretrained/ models keep their variants' frozen embeddings, as the models
of the benchmark's experiment-bilstm and predict-ragged workloads do, so
their training skips the embedding gradient and leaves emb.E out of Adam.
The frozen/ run's report prints precision and PCP as NaN; the last
command covers the NaN of recall, PECM and PCS.

After writing the inputs and after each command it prints a header line
with the command's exit code, then `<sha256>  <path>` for every file
under the workdir that is new or changed since the last header, sorted by
path; so a file a later command overwrites (train-scope rewrites cue/'s
config.txt and run.log) is digested in both versions. The training
settings are kept loose, so the predicted-cue condition differs from the
gold one.

The config snapshots hold the corpus and run paths, so give both runs
the same workdir to compare two checkouts:

    python3 scripts/artifact_digest.py /path/to/parent /tmp/digest > a.txt
    python3 scripts/artifact_digest.py . /tmp/digest > b.txt
    diff a.txt b.txt

The workdir is emptied first; a non-empty directory this script did not
create is refused.
"""
from __future__ import annotations

import hashlib
import logging
import os
import shutil
import sys
from pathlib import Path
from unittest import mock

import numpy as np

MARKER = ".artifact_digest"

CONFIG = {
    "seed": 5,
    "max_len": 20,
    "embed_dim": 8,
    "units": 6,
    "embeddings_trainable": "true",
    "cue.variant": "bilstm",
    "scope.variants": "bilstm,bilstm-crf,bilstm-post",
    "cue.epochs": 3, "cue.batch_size": 16, "cue.lr0": 0.01,
    "cue.decay_every": 0, "cue.early_stopping": "false",
    "scope.epochs": 2, "scope.batch_size": 8, "scope.lr0": 0.01,
    "scope.decay_every": 0, "scope.early_stopping": "false",
}

RAW_TEXT = "the cells showed no growth.\nneither mice nor samples expressed it.\n"

# a gold file with no cue, and a prediction marking one cue and its scope
NO_CUE_GOLD = "# none.1\nthe\tNC\tO\ncells\tNC\tO\ngrew\tNC\tO\n\n# none.2\nit\tNC\tO\n"
NO_CUE_PRED = "# none.1\nthe\tNC\tO\ncells\tC\tC\ngrew\tNC\tA\n\n# none.2\nit\tNC\tO\n"


def _import_from(checkout: Path):
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
    import helpers
    import negscope.corpus as corpus
    import negscope.pipeline as pipeline

    origin = Path(pipeline.__file__).resolve()
    if (checkout / "src").resolve() not in origin.parents:
        raise SystemExit(f"negscope imported from {origin}, not from {checkout}/src")
    return corpus, pipeline, helpers


def _fresh_workdir(work: Path) -> None:
    if work.exists():
        if any(work.iterdir()) and not (work / MARKER).is_file():
            raise SystemExit(f"{work} is not empty and was not made by this script")
        shutil.rmtree(work)
    work.mkdir(parents=True)
    (work / MARKER).write_text("", encoding="utf-8")


def _write_config(path: Path, **overrides) -> Path:
    values = {**CONFIG, **overrides}
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def _write_vectors(path: Path, instances) -> None:
    """A word2vec text file: four of every five sorted token types, plus
    one type outside the corpus, each with seeded values."""
    types = sorted({t for inst in instances for t in inst.sentence.tokens})
    kept = [t for k, t in enumerate(types) if k % 5 != 4] + ["outside-the-corpus"]
    dim = CONFIG["embed_dim"]
    values = np.random.default_rng(31).normal(scale=0.5, size=(len(kept), dim))
    lines = [f"{len(kept)} {dim}"]
    lines += [" ".join([token, *(f"{v:.6f}" for v in row)]) for token, row in zip(kept, values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def commands(work: Path) -> list[list[str]]:
    config = str(work / "config.txt")
    cut = str(work / "config_cut.txt")
    wide = str(work / "config_wide.txt")
    emb = str(work / "config_emb.txt")
    frozen = str(work / "config_frozen.txt")
    pretrained = str(work / "config_pretrained.txt")
    crf_only = str(work / "config_crf.txt")
    exp, cue, scope, frz = (str(work / name) for name in ("exp", "cue", "scope", "frozen"))
    gold = str(work / "exp" / "scope_test_gold.col")
    return [
        ["experiment", "--config", config, "--out", exp],
        ["train-cue", "--config", config, "--out", cue],
        ["train-scope", "--config", config, "--out", cue, "--variant", "bilstm",
         "--cue-input", "pred"],
        ["train-scope", "--config", config, "--out", scope, "--variant", "bilstm-crf"],
        ["train-cue", "--config", cut, "--out", str(work / "cut")],
        ["train-cue", "--config", wide, "--out", str(work / "wide")],
        ["train-scope", "--config", wide, "--out", str(work / "wide"), "--variant", "bilstm"],
        ["train-cue", "--config", emb, "--out", str(work / "emb-train"),
         "--variant", "emb-train"],
        ["train-cue", "--config", emb, "--out", str(work / "emb-crf"), "--variant", "emb-crf"],
        ["train-cue", "--config", emb, "--out", str(work / "emb-bilstm"), "--variant", "bilstm"],
        ["predict", "--out", exp, "--variant", "bilstm", gold, str(work / "p_column.col")],
        ["predict", "--out", exp, "--variant", "bilstm", "--raw", str(work / "raw.txt"),
         str(work / "p_raw.col")],
        ["predict", "--out", exp, "--variant", "bilstm-crf", "--cue-input", "gold", gold,
         str(work / "p_goldcue.col")],
        ["predict", "--out", exp, "--variant", "bilstm", "--postprocess", gold,
         str(work / "p_post.col")],
        ["predict", "--out", cue, gold, str(work / "p_cue_run.col")],
        ["predict", "--out", scope, "--cue-input", "gold", gold, str(work / "p_scope_run.col")],
        ["evaluate", str(work / "exp" / "scope_bilstm_predcue_pred.col"), gold,
         "--out", str(work / "e_exp.txt")],
        ["evaluate", str(work / "p_column.col"), gold, "--out", str(work / "e_column.txt")],
        ["experiment", "--config", frozen, "--out", frz],
        ["predict", "--out", frz, "--cue-input", "pred", "--variant", "bilstm", "--postprocess",
         str(work / "frozen" / "scope_test_gold.col"), str(work / "p_frozen.col")],
        ["evaluate", str(work / "no_cue_pred.col"), str(work / "no_cue_gold.col"),
         "--out", str(work / "e_no_cue.txt")],
        ["experiment", "--config", pretrained, "--out", str(work / "pretrained")],
        ["train-scope", "--config", config, "--out", str(work / "post"),
         "--variant", "bilstm-post"],
        [f"NEGSCOPE_OUT={work / 'env'}", "train-scope", "--config", crf_only, "--seed", "5"],
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    checkout, work = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    corpus_io, pipeline, helpers = _import_from(checkout)
    _fresh_workdir(work)

    corpus = work / "corpus.col"
    instances = helpers.synthetic_instances(200, seed=21)
    corpus_io.write_column_file(corpus, instances)
    _write_vectors(work / "vectors.vec", instances)
    _write_config(work / "config.txt", corpus=corpus)
    _write_config(work / "config_cut.txt", corpus=corpus, max_len=4)
    _write_config(work / "config_wide.txt", corpus=corpus, embed_dim=200, units=48)
    _write_config(work / "config_emb.txt", corpus=corpus, **{"cue.batch_size": 2})
    _write_config(work / "config_frozen.txt", corpus=corpus, embeddings_trainable="false")
    _write_config(work / "config_crf.txt", corpus=corpus, **{"scope.variants": "bilstm-crf"})
    _write_config(work / "config_pretrained.txt", corpus=corpus, embeddings=work / "vectors.vec",
                  embeddings_trainable="false", **{
                      f"{task}.{key}": value for task in ("cue", "scope") for key, value in
                      (("epochs", 6), ("early_stopping", "true"), ("patience", 1),
                       ("decay_every", 1))})
    (work / "raw.txt").write_text(RAW_TEXT, encoding="utf-8")
    (work / "no_cue_gold.col").write_text(NO_CUE_GOLD, encoding="utf-8")
    (work / "no_cue_pred.col").write_text(NO_CUE_PRED, encoding="utf-8")

    # the commands' INFO lines would drown the digests
    logging.basicConfig(level=logging.WARNING)
    seen: dict[str, str] = {}
    for number, command in enumerate([None] + commands(work)):
        if command is None:
            print("command 0: inputs")
        else:
            start = next(k for k, item in enumerate(command) if "=" not in item)
            env, args = dict(item.split("=", 1) for item in command[:start]), command[start:]
            with mock.patch.dict(os.environ, env):
                print(f"command {number}: {args[0]} rc={pipeline.main(args)}")
        for path in sorted(p for p in work.rglob("*") if p.is_file() and p.name != MARKER):
            name = str(path.relative_to(work))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if seen.get(name) != digest:
                seen[name] = digest
                print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
