"""Spans and counts around the public functions of each negscope module.

The tracer wraps functions from outside the package: every binding in a
loaded `negscope.*` module that refers to a target function is replaced,
so calls through `from .layers import lstm_forward` imports and through
module globals are both seen, and `Tagger` methods are replaced on the
class. A target that no longer exists is listed as absent, not raised.

Spans live in memory as (name, start, end, parent) and are written out
when the run ends. Self time is a span's duration minus the part of its
interval covered by its child spans. Computed counts (multiply-adds,
bytes, lattice cells, parameters) come from call arguments and result
shapes only, never from the program's own counters.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "negscope"

# layer module -> wrapped public functions; each gets .calls and .self_s
TARGETS = {
    "corpus": ("parse_column_file", "encode_instances", "read_tag_blocks",
               "format_column_blocks"),
    "models": ("Tagger.scores", "Tagger.predict_tags", "load_checkpoint",
               "save_checkpoint"),
    "layers": ("embed", "embed_backward", "lstm_forward", "lstm_backward",
               "dense_forward", "dense_backward", "crf_nll_grads", "crf_marginals",
               "crf_viterbi"),
    "training": ("train", "instance_loss_grads", "softmax_seq_grads", "adam_step",
                 "token_f1_score"),
    "labeling": ("postprocess",),
    "evaluation": ("evaluate_cue", "evaluate_scope"),
    "pipeline": ("evaluate_files", "write_blocks"),
}
# too frequent for spans: counted only
COUNTED = {"numerics": ("sigmoid", "logsumexp")}

# counts computed by the hooks below; scope_model_frac is scope-model
# predict_tags calls (with cue bits) per cue-model call (without)
COMPUTED = ("layers.lstm.macs", "layers.embed_backward.bytes", "layers.crf.lattice_cells",
            "training.adam_step.params_updated")
SCOPE_FRAC = "pipeline.scope_model_frac"
LATENCY = "models.Tagger.predict_tags"


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


def counted_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in COUNTED.items() for fn in fns]


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


def _rows(shape) -> int:
    return int(np.prod(shape[:-1], dtype=np.int64))


# name -> hook(counts, args, kwargs, result); shapes are read generically
# ((..., d) arrays) so that batched signatures still count
def _lstm_forward(counts, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 1, "inputs"))
    aux = _arg(args, kwargs, 2, "aux")
    units = int(np.asarray(result[0]).shape[-1])
    inputs = 2 if aux is not None else 1
    counts["layers.lstm.macs"] += _rows(x.shape) * 4 * units * (units + inputs * int(x.shape[-1]))


def _lstm_backward(counts, args, kwargs, result):
    dh = np.asarray(_arg(args, kwargs, 2, "d_hidden"))
    d_in = np.asarray(result[1])
    inputs = 2 if result[2] is not None else 1
    units = int(dh.shape[-1])
    # recurrent + weight grads, input + input-side weight grads
    counts["layers.lstm.macs"] += (
        _rows(dh.shape) * 4 * units * (2 * units + 2 * inputs * int(d_in.shape[-1]))
    )


def _embed_backward(counts, args, kwargs, result):
    counts["layers.embed_backward.bytes"] += int(_nbytes(result))


def _crf_cells(passes):
    def hook(counts, args, kwargs, result):
        emissions = np.asarray(_arg(args, kwargs, 0, "emissions"))
        counts["layers.crf.lattice_cells"] += passes * int(emissions.size)
    return hook


def _adam_step(counts, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    values = params.values() if isinstance(params, dict) else params
    counts["training.adam_step.params_updated"] += sum(int(np.asarray(p).size) for p in values)


def _predict_tags(counts, args, kwargs, result):
    bits = _arg(args, kwargs, 2, "cue_bits")
    counts["scope_model_calls" if bits is not None else "cue_model_calls"] += 1


HOOKS = {
    "layers.lstm_forward": _lstm_forward,
    "layers.lstm_backward": _lstm_backward,
    "layers.embed_backward": _embed_backward,
    "layers.crf_marginals": _crf_cells(2),  # forward and backward lattice
    "layers.crf_viterbi": _crf_cells(1),
    "training.adam_step": _adam_step,
    "models.Tagger.predict_tags": _predict_tags,
}


def self_times(spans) -> dict[int, float]:
    """spans: list of (name, start, end, parent index or -1).
    Returns index -> duration minus the union of its children's intervals
    clipped to its own."""
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for idx, (_, start, end, _) in enumerate(spans):
        out[idx] = (end - start) - covered(children.get(idx, ()), start, end)
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                calls[name] += 1
            if hook is not None and name not in self.hook_errors:
                try:
                    hook(self.counts, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module_name: str, qualname: str, make) -> None:
        name = f"{module_name}.{qualname}"
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        if module is None:
            try:
                module = __import__(f"{PACKAGE}.{module_name}", fromlist=["_"])
            except ImportError:
                self.absent.append(name)
                return
        if "." in qualname:
            owner_name, attr = qualname.split(".", 1)
            owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if not callable(original):
                self.absent.append(name)
                return
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(name, original))
            return
        original = getattr(module, qualname, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for module_name, fns in TARGETS.items():
            for qualname in fns:
                self._patch(module_name, qualname, self._span_wrapper)
        for module_name, fns in COUNTED.items():
            for qualname in fns:
                self._patch(module_name, qualname, self._count_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        selfs = self_times(spans)
        self_s: dict[str, float] = defaultdict(float)
        latency = []
        for idx, (name, start, end, _) in enumerate(spans):
            self_s[name] += selfs[idx]
            if name == LATENCY:
                latency.append(end - start)
        metrics = {}
        for name in span_names():
            metrics[f"{name}.calls"] = self.calls.get(name, 0)
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in counted_names():
            metrics[f"{name}.calls"] = self.calls.get(name, 0)
        latency.sort()
        metrics[f"{LATENCY}.samples"] = len(latency)
        metrics[f"{LATENCY}.p50_ms"] = 1e3 * statistics.median(latency) if latency else 0.0
        metrics[f"{LATENCY}.p99_ms"] = (
            1e3 * statistics.quantiles(latency, n=100)[98] if len(latency) >= 2 else 0.0
        )
        for name in COMPUTED:
            metrics[name] = self.counts.get(name, 0)
        cue_calls = self.counts.get("cue_model_calls", 0)
        metrics[SCOPE_FRAC] = (
            self.counts.get("scope_model_calls", 0) / cue_calls if cue_calls else 0.0
        )
        metrics["trace.absent"] = len(self.absent)
        return metrics

    def dump(self, path, workload: str) -> dict:
        """Write the spans as JSON lines and return the summary plus the
        intervals of top-level spans (for the uncovered time)."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            for idx, (name, start, end, parent) in enumerate(spans):
                handle.write(json.dumps({"id": idx, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "workload": workload}) + "\n")
        return {
            "metrics": self.summary(),
            "top_level": [(s[1], s[2]) for s in spans if s[3] < 0],
            "absent": list(self.absent),
            "hook_errors": dict(self.hook_errors),
        }
