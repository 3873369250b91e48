"""One benchmark task in a fresh process: `python3 worker.py <spec.json>`.

The spec names the task and the checkout's `src` directory; the result is
written as JSON to `spec["result"]`. Tasks:

  setup     import negscope and load the workload inputs through the
            package loaders, timed from before the import
  cli       run `negscope.pipeline.main(argv)` for each command, timed and
            optionally traced, then `negscope evaluate` on each (prediction,
            gold) pair, returning the report texts
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_from(src: str, name: str):
    sys.path.insert(0, src)
    module = __import__(name, fromlist=["_"])
    origin = Path(module.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise RuntimeError(f"{name} imported from {origin}, not from {src}")
    return module


def task_setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    corpus = _import_from(spec["src"], "negscope.corpus")
    out: dict = {}
    if spec["kind"] == "train":
        instances = corpus.parse_column_file(spec["corpus"])
        split = corpus.split_dataset(instances, seed=spec["seed"])
        vocab = corpus.build_vocab(split.train)
        if spec.get("embeddings"):
            corpus.load_embedding_file(spec["embeddings"], vocab, spec["embed_dim"])
        encoded = [corpus.encode_instances(part, vocab, spec["max_len"]) for part in split]
        out["setup_s"] = time.perf_counter() - t0
        max_len = spec["max_len"]
        train = split.train
        out["train_instances"] = len(train)
        out["train_tokens"] = sum(min(len(i.sentence.tokens), max_len) for i in train)
        out["scope_train_tokens"] = sum(
            min(len(i.sentence.tokens), max_len) for i in train if i.is_negation
        )
        out["train_vocab"] = vocab.size
        out["encoded"] = [len(part) for part in encoded]
        out["split_ids"] = {name: [i.sentence.source_id for i in part] for name, part in
                            (("validation", split.validation), ("test", split.test))}
    else:
        models = _import_from(spec["src"], "negscope.models")
        run_dir = Path(spec["run_dir"])
        vocab = corpus.Vocabulary.load(run_dir / "vocab.json")
        for name in spec["checkpoints"]:
            models.load_checkpoint(run_dir / name)
        out["setup_s"] = time.perf_counter() - t0
        out["train_vocab"] = vocab.size
    return out


def task_cli(spec: dict) -> dict:
    pipeline = _import_from(spec["src"], "negscope.pipeline")
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for argv in spec["commands"]:
        t0 = time.perf_counter()
        try:
            rc = pipeline.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the command's units, not the benchmark
            traceback.print_exc()
            rc = 1
        t1 = time.perf_counter()
        results.append({"rc": rc, "wall_s": t1 - t0, "start": t0, "end": t1})
    out = {
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.dump(spec["spans"], spec["workload"])
    out["reports"] = []
    for pred, gold in spec.get("evaluate", ()):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = pipeline.main(["evaluate", pred, gold])
        out["reports"].append({"rc": rc, "text": buffer.getvalue()})
    return out


TASKS = {"setup": task_setup, "cli": task_cli}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = TASKS[spec["task"]](spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
