"""Model assembly for both tasks.

A tagger is embedding -> optional BiLSTM -> dense -> head. The cue task
labels {NC, C, MC}; the scope task labels {O, B, C, A} and feeds each
token's 0/1 cue bit to the BiLSTM as a second input. The head is a
per-token softmax or a linear-chain CRF. A Tagger stores its config and
one name -> array table, exactly the table its checkpoint holds.

VARIANTS holds one variant table per task. Cue variants: baseline
(embeddings -> dense), emb-train (the same with trainable embeddings),
bilstm, emb-crf, bilstm-crf. Scope variants: bilstm, bilstm-crf,
bilstm-post (the bilstm model plus smoothing at prediction time).
"""
from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import OOV_INDEX
from .labeling import CUE_TAGS, SCOPE_TAGS
from .layers import (
    CrfParams,
    bilstm_forward,
    crf_viterbi,
    dense_forward,
    embed,
    init_crf,
    init_dense,
    init_embedding,
    init_lstm,
    LstmParams,
)

CHECKPOINT_FORMAT = 3

# bounds on a prediction chunk: sentences x longest length, and sentences.
# Nothing is padded, and the streamed BiLSTM (bilstm_forward with
# keep_cache=False) keeps no per-token working array, so a chunk holds its
# (T, d) inputs and (T, 2U) states plus, per direction, step buffers sized
# by its sentence count and a fixed projection table: at d = U = 200 a
# full chunk of 64 sentences takes about 12 MB (10 MB at 32 sentences).
# One chunk is alive at a time, and `predict` and `train-scope` hold one
# model at a time (see pipeline.cmd_predict).
PREDICT_TOKEN_BUDGET = 1024
PREDICT_MAX_SENTENCES = 64

VARIANTS = {
    "cue": {
        "baseline": dict(use_lstm=False, head="softmax", embeddings_trainable=False),
        "emb-train": dict(use_lstm=False, head="softmax", embeddings_trainable=True),
        "bilstm": dict(use_lstm=True, head="softmax", embeddings_trainable=False),
        "emb-crf": dict(use_lstm=False, head="crf", embeddings_trainable=True),
        "bilstm-crf": dict(use_lstm=True, head="crf", embeddings_trainable=False),
    },
    "scope": {
        "bilstm": dict(use_lstm=True, head="softmax", embeddings_trainable=False),
        "bilstm-crf": dict(use_lstm=True, head="crf", embeddings_trainable=False),
        "bilstm-post": dict(use_lstm=True, head="softmax", embeddings_trainable=False),
    },
}


@dataclass(frozen=True)
class TaggerConfig:
    """What varies between taggers; the rest follows from task and variant
    through VARIANTS, and the scope task reads cue bits as its second input."""

    task: str  # "cue" | "scope"
    variant: str
    vocab_size: int
    embed_dim: int
    units: int
    widen_embeddings: bool = False  # train the embeddings even where the variant freezes them

    def __post_init__(self):
        check_variant(self.task, self.variant)

    @property
    def head(self) -> str:  # "softmax" | "crf"
        return VARIANTS[self.task][self.variant]["head"]

    @property
    def use_lstm(self) -> bool:
        return VARIANTS[self.task][self.variant]["use_lstm"]

    @property
    def two_input(self) -> bool:
        return self.task == "scope"

    @property
    def embeddings_trainable(self) -> bool:
        return self.widen_embeddings or VARIANTS[self.task][self.variant]["embeddings_trainable"]

    @property
    def labels(self) -> tuple[str, ...]:
        return CUE_TAGS if self.task == "cue" else SCOPE_TAGS

    @property
    def num_labels(self) -> int:
        return len(self.labels)


def check_variant(task: str, variant: str) -> str:
    """The variant, once VARIANTS knows it for the task; ValueError if not."""
    if task not in VARIANTS:
        raise ValueError(f"unknown task {task!r}")
    if variant not in VARIANTS[task]:
        raise ValueError(f"unknown {task} variant {variant!r}; pick from {sorted(VARIANTS[task])}")
    return variant


def scope_base(variant: str) -> str:
    """The trained architecture behind a scope variant; -post adds only the
    prediction-time smoother, so it shares its base model's weights."""
    return variant.removesuffix("-post")


def smooth_predictions(variant: str) -> bool:
    """Whether a scope variant smooths its model's tags at prediction time."""
    return scope_base(variant) != variant


def named_arrays(emb, lstm_fwd, lstm_bwd, dense_w, dense_b, crf) -> dict:
    """Parameter name -> array, in a stable order, for a tagger's parameters,
    their gradients or their shapes (the LSTM parts being LstmParams, the
    embedding's gradient a layers.ColumnGrad); a None part gets no entry."""
    out: dict[str, np.ndarray] = {} if emb is None else {"emb.E": emb}
    for tag, lstm in (("f", lstm_fwd), ("b", lstm_bwd)):
        if lstm is not None:
            out.update({f"lstm.{tag}.{k}": v for k, v in lstm.arrays().items()})
    out["dense.W"] = dense_w
    out["dense.b"] = dense_b
    if crf is not None:
        out["crf.T"] = crf
    return out


def parameter_shapes(config: TaggerConfig) -> dict[str, tuple[int, ...]]:
    """Parameter name -> shape for a tagger of this config, in the order
    of Tagger.parameters()."""
    d, g, labels = config.embed_dim, 4 * config.units, config.num_labels
    lstm, width = None, d
    if config.use_lstm:
        lstm = LstmParams((g, d), (g, config.units), (g,), (g,) if config.two_input else None)
        width = 2 * config.units
    return named_arrays((d, config.vocab_size), lstm, lstm, (labels, width), (labels,),
                        (labels + 2, labels + 2) if config.head == "crf" else None)


class Tagger:
    """A config and its parameter table; losses live in training."""

    def __init__(self, config: TaggerConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params  # parameter_shapes(config)'s names, in its order

    @classmethod
    def build(cls, config: TaggerConfig, rng: np.random.Generator,
              embedding_matrix: np.ndarray | None = None) -> "Tagger":
        if embedding_matrix is not None:
            want = (config.embed_dim, config.vocab_size)
            if embedding_matrix.shape != want:
                raise ValueError(f"embedding matrix shape {embedding_matrix.shape} != {want}")
            copy = True if config.embeddings_trainable else None  # frozen: shared, not copied
            emb = np.array(embedding_matrix, dtype=np.float64, copy=copy)
        else:
            emb = init_embedding(config.embed_dim, config.vocab_size, OOV_INDEX, rng)
        lstms = [init_lstm(config.units, config.embed_dim, rng, config.two_input)
                 if config.use_lstm else None for _ in "fb"]  # forward, then backward
        width = 2 * config.units if config.use_lstm else config.embed_dim
        dense = init_dense(config.num_labels, width, rng)
        crf = init_crf(config.num_labels).trans if config.head == "crf" else None
        return cls(config, named_arrays(emb, *lstms, *dense, crf))

    # -- parameter book-keeping ------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Name -> live array, in a stable order; a new dict on each call."""
        return dict(self.params)

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        params = self.parameters()
        if not self.config.embeddings_trainable:
            params.pop("emb.E")
        return params

    def lstm(self, tag: str) -> LstmParams:
        """LSTM direction `tag` ("f" or "b") as views of its fused blocks."""
        return LstmParams(*(self.params.get(f"lstm.{tag}.{k}")
                            for k in ("w_in", "w_rec", "b", "w_aux")))

    @property
    def crf(self) -> CrfParams | None:
        """The CRF head's transitions with their start/end states, or None."""
        return CrfParams(self.params["crf.T"]) if self.config.head == "crf" else None

    # -- forward ----------------------------------------------------------

    def scores(self, token_ids, cue_bits=None, keep_cache: bool = True):
        """A batch of sentences' ids [+ one 0/1 cue bit row per sentence]
        -> (scores (L, T), cache).

        The sentences' columns lie one after another, T being their total
        length; `split_columns` cuts them apart again. keep_cache=False
        skips what only the backward pass reads.
        """
        lengths = np.array([len(ids) for ids in token_ids], dtype=np.int64)
        ids = np.concatenate(token_ids).astype(np.int64)
        aux = None
        if self.config.two_input:
            if cue_bits is None or len(cue_bits) != len(lengths):
                raise ValueError(f"{self.config.task} model needs cue bits, one row per sentence")
            for row, n in zip(cue_bits, lengths):
                if len(row) != n:
                    raise ValueError(f"a cue bit row has {len(row)} entries for {n} tokens")
            aux = np.concatenate(cue_bits).astype(np.float64)
            if not np.all((aux == 0) | (aux == 1)):
                raise ValueError("cue bits must be 0 or 1")
        embedded = embed(self.params["emb.E"], ids)
        states, lstm_cache = embedded, None
        if self.config.use_lstm:
            states, lstm_cache = bilstm_forward(self.lstm("f"), self.lstm("b"), embedded, aux,
                                                lengths, keep_cache, keys=ids)
        scores = dense_forward(self.params["dense.W"], self.params["dense.b"], states)
        cache = {"ids": ids, "lengths": lengths, "states": states, "lstm": lstm_cache}
        return scores, cache

    def predict_ids(self, token_ids, cue_bits=None) -> list[list[int]]:
        """Label ids per sentence, in input order: the argmax per token
        (softmax head) or the Viterbi path (CRF head), ties resolving to the
        lowest label index either way. Sentences run in length_chunks
        within PREDICT_TOKEN_BUDGET and PREDICT_MAX_SENTENCES; each
        sentence's recurrence and Viterbi path read only its own tokens, so
        labels do not depend on the chunk it lands in.
        """
        lengths = [len(ids) for ids in token_ids]
        if cue_bits is not None and len(cue_bits) != len(lengths):
            raise ValueError(f"{len(cue_bits)} cue bit rows for {len(lengths)} sentences")
        out: list = [None] * len(lengths)
        for chunk in length_chunks(lengths, PREDICT_TOKEN_BUDGET, PREDICT_MAX_SENTENCES):
            bits = None if cue_bits is None else [cue_bits[i] for i in chunk]
            # [0]: the chunk's cache, and its states, go before the next chunk runs
            scores = self.scores([token_ids[i] for i in chunk], bits, keep_cache=False)[0]
            chunk_lengths = [lengths[i] for i in chunk]
            if self.crf is not None:
                labels = crf_viterbi(scores, self.crf, chunk_lengths)[0]
            else:
                labels = [row.tolist() for row in split_columns(scores.argmax(axis=0),
                                                                chunk_lengths)]
            for i, row in zip(chunk, labels):
                out[i] = row
        return out

    def predict_tags(self, token_ids, cue_bits=None) -> list[list[str]]:
        labels = self.config.labels
        return [[labels[k] for k in ids] for ids in self.predict_ids(token_ids, cue_bits)]


def length_chunks(lengths, budget: int, max_sentences: int | None = None):
    """Sentence indices, stably sorted by length, cut into chunks whose
    count x longest length stays within budget and whose count stays
    within max_sentences; a sentence longer than the budget runs alone."""
    chunk: list[int] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and ((len(chunk) + 1) * lengths[i] > budget or len(chunk) == max_sentences):
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def split_columns(scores: np.ndarray, lengths) -> list[np.ndarray]:
    """(L, T) scores -> one (L, n) block per sentence; (T,) -> one (n,) part."""
    return np.split(scores, np.cumsum(lengths)[:-1], axis=-1)


# ---------------------------------------------------------------------------
# checkpoints
#
# A checkpoint is a numpy .npz archive. Entry "__meta__" is a JSON object
# of "format" (3), the META_KEYS, "oov_index" (always OOV_INDEX) and
# "vocab_sha256". The other entries are the tagger's table, Tagger.params,
# as is: float64 arrays under the names named_arrays gives: emb.E, dense.W, dense.b, crf.T and,
# per LSTM direction (f, b), the fused blocks lstm.f.w_in (4U, d),
# lstm.f.w_rec (4U, U), lstm.f.b (4U,) and, for the scope model, the
# cue-bit weights lstm.f.w_aux (4U,) (see LstmParams), gates stacked in
# the order i, f, o, g. Formats 1 (per-gate arrays) and 2 (a (4U, d)
# w_aux block) are rejected.

# the TaggerConfig attributes __meta__ stores, in its order
META_KEYS = ("task", "variant", "labels", "vocab_size", "embed_dim", "units", "head",
             "use_lstm", "two_input", "embeddings_trainable")
# what np.load and an entry read raise on a damaged or foreign file
_READ_ERRORS = (EOFError, OSError, TypeError, ValueError, zipfile.BadZipFile, zlib.error)


def save_checkpoint(path, tagger: Tagger, vocab_hash: str) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        **{key: getattr(tagger.config, key) for key in META_KEYS},
        "oov_index": OOV_INDEX,
        "vocab_sha256": vocab_hash,
    }
    np.savez(path, __meta__=np.array(json.dumps(meta)), **tagger.params)


def read_checkpoint_meta(path) -> tuple[TaggerConfig, dict]:
    """A checkpoint's config and __meta__, checked; no parameter array is read."""
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
    except KeyError:
        raise ValueError(f"{path}: not a tagger checkpoint (missing __meta__)") from None
    except _READ_ERRORS as exc:
        raise ValueError(f"{path}: not a readable checkpoint ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint __meta__ is not a JSON object")
    if meta.get("format") != CHECKPOINT_FORMAT:
        hint = "; an older LSTM layout, retrain" if meta.get("format") in (1, 2) else ""
        raise ValueError(f"{path}: unsupported checkpoint format {meta.get('format')}{hint}")
    return _checked_config(path, meta), meta


def load_checkpoint(path) -> tuple[Tagger, dict]:
    config, meta = read_checkpoint_meta(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: np.asarray(data[name], dtype=np.float64)
                      for name in data.files if name != "__meta__"}
    except _READ_ERRORS as exc:
        raise ValueError(f"{path}: not a readable checkpoint ({exc})") from None
    shapes = parameter_shapes(config)
    if set(shapes) != set(arrays):
        raise ValueError(f"{path}: parameter set mismatch: {sorted(set(shapes) ^ set(arrays))}")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{path}: {name} has shape {arrays[name].shape}, expected {shape}")
    return Tagger(config, {name: arrays[name] for name in shapes}), meta


def _checked_config(path, meta: dict) -> TaggerConfig:
    """The config a checkpoint's task and variant imply, after checking the
    stored architecture against it. Stored trainable embeddings may widen a
    frozen variant (as widen_embeddings), never the reverse."""
    for key in (*META_KEYS, "oov_index", "vocab_sha256"):
        if key not in meta:
            raise ValueError(f"{path}: checkpoint metadata has no {key!r}")
    try:
        config = TaggerConfig(meta["task"], meta["variant"], meta["vocab_size"],
                              meta["embed_dim"], meta["units"], meta["embeddings_trainable"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for key in META_KEYS:
        stored = tuple(meta[key]) if key == "labels" else meta[key]
        want = getattr(config, key)
        if stored != want:
            raise ValueError(f"{path}: {key}={stored!r} does not match {meta['task']} "
                             f"variant {meta['variant']!r}, which has {want!r}")
    if meta["oov_index"] != OOV_INDEX:
        raise ValueError(f"{path}: unsupported oov index {meta['oov_index']}")
    return config
