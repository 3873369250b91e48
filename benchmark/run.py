"""negscope benchmark: one workload, one seed, one result line.

    python3 benchmark/run.py --workload experiment-bilstm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; negscope is imported from its `src/`.
The benchmark generates seeded inputs under `.bench_work/` in the checkout,
repeats the workload's CLI command in fresh processes (`worker.py`) while
another repetition fits in `--seconds`, checks every output, and prints a
record line (environment, input shapes, per-repetition times, quality,
problems) followed by the result line

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

where a unit is one predicted or scored sentence (see checks.py). With
`--trace 0` the metrics are the end-to-end ones, timings as medians over
the repetitions:

  setup_s      import negscope and load the workload's inputs through the
               package loaders in a fresh process; median of SETUP_REPEATS
  wall_s       the workload's CLI command
  peak_rss_mb  ru_maxrss of the process running the command
  cue_f1       cue token F1 of `negscope predict` on held-out text, with the
               checkpoints the workload trained or uses

The record line adds tokens_per_s: real tokens the command works through
per second of wall_s (training tokens x epochs summed over every model it
trains, or the tokens it tags). For one seed it is a constant over wall_s,
so it is not a second bounded metric.

With `--trace 1` traced and untraced repetitions alternate and the metrics
are the per-layer ones of tracer.py, plus trace.overhead_frac (traced over
untraced wall time, minus 1) and trace.uncovered_s (wall time no span
covers).

Workloads, and why each was chosen:

  experiment-bilstm  `negscope experiment`, cue bilstm-crf, scope bilstm,
                     bilstm-crf, bilstm-post: the paper's headline run and the
                     only one covering LSTM backward, CRF training, the
                     gold-vs-predicted cue hand-off, scoring and file IO.
  train-emb          `negscope train-cue --variant emb-train` on a ~10k-type
                     training vocabulary: no LSTM; the time goes to the dense
                     (d, V) embedding gradient, its accumulation and Adam.
  predict-ragged     `negscope predict --cue-input pred --variant bilstm
                     --postprocess` on a held-out file with ragged lengths and
                     dense negation: forward only (cue LSTM + Viterbi on every
                     sentence, scope LSTM + postprocess on predicted cues).
                     Its checkpoints are trained in each run by the code under
                     measurement, so none is reused across commits.

After the repetitions, each training workload tags its test split plus a
held-out file with `negscope predict` and the checkpoints it trained; that
output is checked against what the training command wrote and gives
cue_f1. BLAS runs on one thread in every process. The record line carries
the environment (Python, numpy, BLAS, threads, nproc, dimensions, seed,
source commit or hash) and the shape of every generated input.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

EMBED_DIM = 200
UNITS = 200
MAX_LEN = 100
BLAS_THREADS = 1
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # every worker is stopped before the 180 s limit
WORKER = HERE / "worker.py"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "cue_f1": "%"}


class WorkerFailed(RuntimeError):
    pass


@dataclass
class Ctx:
    root: Path
    work: Path
    seed: int
    env: dict
    started: float
    tasks: int = 0

    @property
    def src(self) -> Path:
        return self.root / "src"

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, task: str, **spec) -> dict:
        """Run one worker process to completion (or kill it at the deadline)."""
        self.tasks += 1
        stem = self.work / f"task{self.tasks:03d}_{task}"
        spec.update(task=task, src=str(self.src), result=f"{stem}.result.json")
        Path(f"{stem}.json").write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.remaining()
        if timeout <= 1:
            raise WorkerFailed(f"{task}: no time left before the deadline")
        with open(f"{stem}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(WORKER), f"{stem}.json"], cwd=self.work,
                    env=self.env, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                raise WorkerFailed(f"{task}: killed at the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            tail = Path(f"{stem}.log").read_text(encoding="utf-8").strip().splitlines()[-3:]
            raise WorkerFailed(f"{task}: worker exited {proc.returncode}: {' | '.join(tail)}")
        return json.loads(Path(f"{stem}.result.json").read_text(encoding="utf-8"))

    def cli(self, argv: list, evaluate=(), trace: bool = False, spans: Path | None = None,
            workload: str = "") -> tuple[dict, dict]:
        """One CLI command in a fresh worker, then `negscope evaluate` on
        (prediction, gold) pairs; returns (worker result, reports by
        prediction file name)."""
        out = self.worker("cli", commands=[argv], trace=trace, spans=str(spans or ""),
                          workload=workload, evaluate=[[str(p), str(g)] for p, g in evaluate])
        return out, dict(zip((p.name for p, _ in evaluate), out["reports"]))


def config_text(**values) -> str:
    return "".join(f"{k}={v}\n" for k, v in values.items())


def read_text(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.is_file() else ""


@dataclass
class Rep:
    """What one repetition measured and what its checks found."""

    wall_s: float
    peak_rss_mb: float
    files: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    trace: dict | None = None


class Workload:
    """Inputs, command and checks of one workload."""

    name = ""
    cue_epochs = scope_epochs = 0

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.reference: dict = {}
        self.record: dict = {}

    def generate(self, shape, prefix: str) -> list:
        blocks = inputs.generate(shape, self.ctx.seed, prefix)
        self.reference.update({b[0]: (tuple(b[1]), tuple(b[2]), tuple(b[3])) for b in blocks})
        return blocks

    def write_input(self, shape, filename: str, prefix: str, embeddings: bool = False) -> Path:
        blocks = self.generate(shape, prefix)
        path = self.ctx.work / filename
        inputs.write(path, blocks)
        self.record[filename] = inputs.describe(blocks)
        if embeddings:
            vec = path.with_suffix(".vec")
            vec.write_text(inputs.embedding_lines(blocks, EMBED_DIM, self.ctx.seed), encoding="utf-8")
        return path

    def write_config(self, filename: str, corpus: Path, embeddings: bool, **train) -> Path:
        """Fixed epochs without early stopping, so the work does not depend
        on validation scores; train overrides or adds keys."""
        values = dict(corpus=corpus, seed=self.ctx.seed, embed_dim=EMBED_DIM, units=UNITS,
                      max_len=MAX_LEN)
        if embeddings:
            values["embeddings"] = corpus.with_suffix(".vec")
        for task in ("cue", "scope"):
            epochs = getattr(self, f"{task}_epochs")
            if epochs:
                values.update({f"{task}.epochs": epochs, f"{task}.lr0": 0.01,
                               f"{task}.early_stopping": "false"})
        values.update(train)
        path = self.ctx.work / filename
        path.write_text(config_text(**values), encoding="utf-8")
        return path

    def train_setup(self, corpus: Path, embeddings: bool) -> dict:
        return dict(kind="train", corpus=str(corpus), seed=self.ctx.seed, max_len=MAX_LEN,
                    embed_dim=EMBED_DIM,
                    embeddings=str(corpus.with_suffix(".vec")) if embeddings else None)

    def predicted(self, name: str, path: Path, ids, scope: bool) -> tuple:
        check = checks.FileCheck(name, list(ids))
        if not path.is_file():
            check.fail_all("file missing")
            return check, {}
        return check, checks.check_blocks(check, checks.read_blocks(path), self.reference, scope)

    def run_rep(self, rep: Path, traced: bool) -> Rep:
        pairs = self.evaluate_pairs(rep)
        cli, reports = self.ctx.cli(self.command(rep), pairs, trace=traced,
                                    spans=rep / "spans.jsonl", workload=self.name)
        main = cli["commands"][0]
        out = Rep(main["wall_s"], cli["peak_rss_mb"])
        if traced:
            out.trace = cli["trace"]
            covered = tracer.covered(out.trace.pop("top_level"), main["start"], main["end"])
            out.trace["uncovered_s"] = main["wall_s"] - covered
        if main["rc"] != 0:
            check = checks.FileCheck(self.name, [f"unit{k}" for k in range(self.expected_units())])
            check.fail_all(f"command exited {main['rc']}")
            out.files = [check]
        else:
            self.check(rep, out, reports)
        return out

    def check_predictions(self, path: Path, ids, out, reports: dict, scope: bool,
                          agree: dict | None = None) -> None:
        """A `negscope predict` output must tag every input sentence, be
        scored identically by `negscope evaluate` and the benchmark, and
        agree with what the training command wrote: agree maps id -> (cue
        tags, scope tags or None when only cues are compared). Records
        cue_f1 (and scope_f1_predcue) in out.quality."""
        check, by_id = self.predicted(path.name, path, ids, scope)
        out.files.append(check)
        for sid, (cue_tags, scope_tags) in (agree or {}).items():
            got = by_id.get(sid)
            if got is not None and (got.cue_tags != cue_tags or (
                    scope_tags is not None and got.scope_tags != scope_tags)):
                check.fail(sid, f"sentence {sid} differs from the training command's prediction")
        if scope:
            checks.check_smoothed(check, list(by_id.values()))
        if not set(ids) <= by_id.keys():
            return
        report = reports.get(path.name, {"rc": 1, "text": ""})
        if report["rc"] != 0:
            check.fail_all("negscope evaluate failed on the prediction file")
        preds = [by_id[i] for i in ids]
        out.quality["cue_f1"] = checks.check_report(
            check, report["text"], [b.cue_tags for b in preds],
            [self.reference[i][1] for i in ids], "cue", checks.CUE_POSITIVE)
        if scope:
            out.quality["scope_f1_predcue"] = checks.check_report(
                check, report["text"], [b.scope_tags or () for b in preds],
                [self.reference[i][2] for i in ids], "scope", checks.SCOPE_POSITIVE)
            calls = sum(1 for b in preds if set(b.cue_tags) & checks.CUE_POSITIVE)
            out.quality["predcue_scope_sentences"] = calls
            if calls == 0:
                check.fail_all("the predicted-cue path runs the scope model on nothing")
        if not out.quality["cue_f1"] > 0:
            check.fail_all("the cue model finds no cue")

    def finish(self, last_rep: Path, out: Rep) -> None:
        """Checks that need a finished repetition but are not repeated."""


class TrainingWorkload(Workload):
    """Trains with its CLI command; afterwards tags its test split plus a
    held-out file with the checkpoints of the last repetition."""

    heldout: inputs.Shape
    predict_flags: tuple = ()
    scope = False
    agree: dict = {}  # set by check(); empty when no repetition got that far

    def setup_spec(self) -> dict:
        return self.train_setup(self.corpus, embeddings=self.embeddings)

    def after_setup(self, setup: dict) -> None:
        self.split_ids = setup["split_ids"]
        self.record["corpus.col"]["train_vocab"] = setup["train_vocab"]
        bases = len({v.removesuffix("-post") for v in getattr(self, "variants", ())})
        self.tokens = (setup["train_tokens"] * self.cue_epochs
                       + setup["scope_train_tokens"] * self.scope_epochs * bases)

    def evaluate_pairs(self, rep: Path) -> list:
        run = rep / "run"
        return [(run / f"cue_{n}_pred.col", run / f"cue_{n}_gold.col") for n in ("val", "test")]

    def cue_files(self, rep: Path, out: Rep, reports: dict) -> dict:
        """cue_{val,test}_{pred,gold}.col of a training run; returns the
        checked prediction blocks by id per split."""
        run = rep / "run"
        blocks = {}
        for name, ids in (("val", self.split_ids["validation"]), ("test", self.split_ids["test"])):
            gold_check = checks.FileCheck(f"cue_{name}_gold.col", ids)
            gold_path = run / f"cue_{name}_gold.col"
            if gold_path.is_file():
                gold = checks.read_blocks(gold_path)
                checks.check_blocks(gold_check, gold, self.reference, scope=False)
                checks.check_gold(gold_check, gold, self.reference)
            else:
                gold_check.fail_all("file missing")
            pred_check, by_id = self.predicted(f"cue_{name}_pred.col", run / f"cue_{name}_pred.col",
                                               ids, scope=False)
            report = reports.get(f"cue_{name}_pred.col", {"rc": 1, "text": ""})
            if report["rc"] != 0 or report["text"] != read_text(run / f"cue_{name}_report.txt"):
                pred_check.fail_all(f"negscope evaluate does not reproduce cue_{name}_report.txt")
            if set(ids) <= by_id.keys():
                out.quality[f"cue_f1_{name}split"] = checks.check_report(
                    pred_check, report["text"], [by_id[i].cue_tags for i in ids],
                    [self.reference[i][1] for i in ids], "cue", checks.CUE_POSITIVE)
            out.files += [gold_check, pred_check]
            blocks[name] = by_id
        out.quality["final_train_loss"] = checks.last_loss(read_text(run / "run.log"), "cue")
        return blocks

    def finish(self, last_rep: Path, out: Rep) -> None:
        heldout = self.generate(self.heldout, "held")
        self.record["heldout.col"] = inputs.describe(heldout)
        test = [(i, *self.reference[i]) for i in self.split_ids["test"]]
        source = self.ctx.work / "predict_input.col"
        inputs.write(source, test + heldout)
        output = last_rep / "predict.col"
        run = last_rep / "run"
        _, reports = self.ctx.cli(["predict", "--out", str(run), *self.predict_flags,
                                   str(source), str(output)], [(output, source)])
        self.check_predictions(output, [b[0] for b in test + heldout], out, reports,
                               self.scope, self.agree)


class ExperimentBilstm(TrainingWorkload):
    name = "experiment-bilstm"
    heldout = inputs.EXPERIMENT_HELDOUT
    variants = ("bilstm", "bilstm-crf", "bilstm-post")
    cue_epochs, scope_epochs = 1, 1
    embeddings = True
    predict_flags = ("--variant", "bilstm", "--postprocess")
    scope = True

    def prepare(self) -> None:
        self.corpus = self.write_input(inputs.EXPERIMENT, "corpus.col", "exp", embeddings=True)
        self.config = self.write_config(
            "experiment.cfg", self.corpus, embeddings=True,
            **{"cue.variant": "bilstm-crf", "scope.variants": ",".join(self.variants),
               "cue.batch_size": 8, "scope.batch_size": 8,
               # ~29 training negations: the cue tagger needs the larger step
               # to learn them in one epoch on every seed
               "cue.lr0": 0.02})

    def expected_units(self) -> int:
        test = self.split_ids["test"]
        negation = sum(1 for i in test if set(self.reference[i][1]) & checks.CUE_POSITIVE)
        return len(self.split_ids["validation"]) + len(test) + 6 * negation

    def command(self, rep: Path) -> list:
        return ["experiment", "--config", str(self.config), "--out", str(rep / "run")]

    def evaluate_pairs(self, rep: Path):
        run = rep / "run"
        return super().evaluate_pairs(rep) + [
            (run / f"scope_{v}_{c}cue_pred.col", run / "scope_test_gold.col")
            for v in self.variants for c in ("gold", "pred")]

    def check(self, rep: Path, out: Rep, reports: dict) -> None:
        run = rep / "run"
        cue = self.cue_files(rep, out, reports)
        test_ids = self.split_ids["test"]
        pred_cue = {sid: bool(set(b.cue_tags) & checks.CUE_POSITIVE)
                    for sid, b in cue["test"].items()}
        gold_cue = {sid: bool(set(self.reference[sid][1]) & checks.CUE_POSITIVE)
                    for sid in test_ids}
        testset = [sid for sid in test_ids if gold_cue[sid] or pred_cue.get(sid)]
        tp = sum(1 for sid in testset if gold_cue[sid] and pred_cue.get(sid))
        out.quality["testset_tp"] = tp

        gold_check = checks.FileCheck("scope_test_gold.col", testset)
        gold_path = run / "scope_test_gold.col"
        if gold_path.is_file():
            gold = checks.read_blocks(gold_path)
            checks.check_blocks(gold_check, gold, self.reference, scope=True)
            checks.check_gold(gold_check, gold, self.reference)
        else:
            gold_check.fail_all("file missing")
        report = checks.parse_report(read_text(run / "report.txt"))
        if report.get("testset.tp") != str(tp):
            gold_check.fail_all(f"report.txt testset.tp={report.get('testset.tp')}, expected {tp}")
        if tp == 0:
            gold_check.fail_all("testset.tp=0: the predicted-cue condition measures nothing")
        out.files.append(gold_check)

        # the follow-up predict must repeat the test-split cues and the
        # smoothed predicted-cue scopes
        self.agree = {sid: (b.cue_tags, None) for sid, b in cue["test"].items()}
        for variant in self.variants:
            for cond in ("gold", "pred"):
                name = f"scope_{variant}_{cond}cue_pred.col"
                check, by_id = self.predicted(name, run / name, testset, scope=True)
                out.files.append(check)
                report = reports.get(name, {"rc": 1, "text": ""})
                if report["rc"] != 0 or report["text"] != read_text(
                        run / f"scope_{variant}_{cond}cue_report.txt"):
                    check.fail_all("negscope evaluate does not reproduce its report")
                if variant.endswith("-post"):
                    checks.check_smoothed(check, list(by_id.values()))
                if not set(testset) <= by_id.keys() or not all(
                        b.scope_tags for b in by_id.values()):
                    continue
                f1 = checks.check_report(
                    check, report["text"], [by_id[i].scope_tags for i in testset],
                    [self.reference[i][2] for i in testset], "scope", checks.SCOPE_POSITIVE)
                if variant == "bilstm-post":
                    out.quality[f"scope_f1_{cond}cue_testsplit"] = f1
                    if cond == "pred":
                        self.agree.update({i: (b.cue_tags, b.scope_tags)
                                           for i, b in by_id.items()})


class TrainEmb(TrainingWorkload):
    name = "train-emb"
    heldout = inputs.EMB_TRAIN_HELDOUT
    cue_epochs = 1
    embeddings = False

    def prepare(self) -> None:
        self.corpus = self.write_input(inputs.EMB_TRAIN, "corpus.col", "emb")
        self.config = self.write_config("train-emb.cfg", self.corpus, embeddings=False,
                                        **{"cue.batch_size": 32})

    def expected_units(self) -> int:
        return len(self.split_ids["validation"]) + len(self.split_ids["test"])

    def command(self, rep: Path) -> list:
        return ["train-cue", "--variant", "emb-train", "--config", str(self.config),
                "--out", str(rep / "run")]

    def check(self, rep: Path, out: Rep, reports: dict) -> None:
        cue = self.cue_files(rep, out, reports)
        self.agree = {sid: (b.cue_tags, None) for sid, b in cue["test"].items()}


class PredictRagged(Workload):
    name = "predict-ragged"
    cue_epochs, scope_epochs = 1, 1

    def prepare(self) -> None:
        ctx = self.ctx
        corpus = self.write_input(inputs.FIXTURE, "fixture.col", "fix", embeddings=True)
        self.input = self.write_input(inputs.RAGGED, "ragged.col", "rag")
        self.ids = [f"rag.{i}" for i in range(inputs.RAGGED.sentences)]
        self.tokens = self.record["ragged.col"]["tokens"]
        config = self.write_config(
            "fixture.cfg", corpus, embeddings=True,
            **{"cue.variant": "bilstm-crf", "scope.variants": "bilstm",
               "cue.batch_size": 8, "scope.batch_size": 8})
        # the checkpoints come from the code under measurement, in every run
        self.fixture = ctx.work / "fixture"
        trained, _ = ctx.cli(["experiment", "--config", str(config), "--out", str(self.fixture)])
        if trained["commands"][0]["rc"] != 0:
            raise WorkerFailed(f"fixture training exited {trained['commands'][0]['rc']}")
        self.record["fixture_train_s"] = trained["commands"][0]["wall_s"]

    def setup_spec(self) -> dict:
        return dict(kind="predict", run_dir=str(self.fixture),
                    checkpoints=["cue.npz", "scope_bilstm.npz"])

    def after_setup(self, setup: dict) -> None:
        pass

    def expected_units(self) -> int:
        return len(self.ids)

    def command(self, rep: Path) -> list:
        return ["predict", "--out", str(self.fixture), "--cue-input", "pred",
                "--variant", "bilstm", "--postprocess", str(self.input),
                str(rep / "predict.col")]

    def evaluate_pairs(self, rep: Path):
        return [(rep / "predict.col", self.input)]

    def check(self, rep: Path, out: Rep, reports: dict) -> None:
        self.check_predictions(rep / "predict.col", self.ids, out, reports, scope=True)
        out.quality["final_train_loss"] = checks.last_loss(
            read_text(self.fixture / "run.log"), "cue")


WORKLOADS = {w.name: w for w in (ExperimentBilstm, TrainEmb, PredictRagged)}


def environment(ctx: Ctx) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ctx.root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ctx.root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ctx.src / "negscope").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "embed_dim": EMBED_DIM, "units": UNITS, "max_len": MAX_LEN, "seed": ctx.seed,
        "git_commit": commit or None, "src_sha256": digest.hexdigest(),
    }


def median(values) -> float:
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def run_workload(workload: Workload, seconds: float, trace: bool) -> dict:
    ctx = workload.ctx
    record = {"workload": workload.name, "env": environment(ctx), "inputs": workload.record}
    workload.prepare()
    setups = [ctx.worker("setup", **workload.setup_spec()) for _ in range(SETUP_REPEATS)]
    workload.after_setup(setups[0])

    # repetitions fill the window; one that would overrun it is not started
    reps: list[Rep] = []
    window = time.monotonic()
    last = 0.0
    while len(reps) < 2 or (time.monotonic() - window + last <= seconds
                            and ctx.remaining() > 40):
        rep_dir = ctx.work / f"rep{len(reps)}"
        rep_dir.mkdir()
        started = time.monotonic()
        reps.append(workload.run_rep(rep_dir, traced=trace and len(reps) % 2 == 1))
        last = time.monotonic() - started
        if len(reps) > 1:
            shutil.rmtree(ctx.work / f"rep{len(reps) - 2}", ignore_errors=True)
    workload.finish(rep_dir, reps[-1])

    units = failed = 0
    problems = []
    for rep in reps:
        for check in rep.files:
            units += len(check.ids)
            failed += len(check.failed)
            problems += check.problems
    quality = reps[-1].quality
    for rep in reps[:-1]:
        shared = {k: quality.get(k) for k in rep.quality}
        if json.dumps(rep.quality, sort_keys=True) != json.dumps(shared, sort_keys=True):
            problems.append("repeated runs of one seed give different outputs")
            failed = units
    plain = [r for r in reps if r.trace is None]
    wall_s = median(r.wall_s for r in plain)
    metrics = {
        "setup_s": median(s["setup_s"] for s in setups),
        "wall_s": wall_s,
        "peak_rss_mb": median(r.peak_rss_mb for r in plain),
        "cue_f1": quality.get("cue_f1", float("nan")),
    }
    record.update(
        tokens_per_s=workload.tokens / wall_s, reps=len(reps), setup_runs=[s["setup_s"] for s in setups],
        walls=[r.wall_s for r in reps], traced=[r.trace is not None for r in reps],
        quality=quality, failed_frac=failed / units if units else 1.0,
        problems=problems[:20],
    )
    if trace:
        traced = [r.trace for r in reps if r.trace is not None]
        layer = dict(traced[0]["metrics"])
        for key in layer:
            if key.endswith(".self_s") or key.endswith("_ms"):
                layer[key] = median(t["metrics"][key] for t in traced)
        layer["trace.overhead_frac"] = median(r.wall_s for r in reps if r.trace) / wall_s - 1
        layer["trace.uncovered_s"] = median(t["uncovered_s"] for t in traced)
        record.update(absent=traced[0]["absent"], hook_errors=traced[0]["hook_errors"])
        metrics = layer
    record["metrics"] = metrics
    record["result"] = {"correct": failed == 0 and not problems, "attempted": units,
                        "failed": failed}
    return record


def per_layer_units(name: str) -> str:
    if name.endswith(".self_s") or name == "trace.uncovered_s":
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "negscope" / "pipeline.py").is_file():
        print(f"error: no negscope sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("NEGSCOPE_OUT", None)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    ctx = Ctx(root, work, args.seed, env, time.monotonic())
    workload = WORKLOADS[args.workload](ctx)
    try:
        record = run_workload(workload, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        record = {"workload": args.workload, "error": str(exc), "metrics": {},
                  "result": {"correct": False, "attempted": 1, "failed": 1}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    units = per_layer_units if args.trace else END_TO_END.get
    result = dict(record["result"])
    # a value a failed run could not measure is null, never NaN
    result["metrics"] = {name: {"value": value if value == value else None, "unit": units(name)}
                         for name, value in record["metrics"].items()}
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
