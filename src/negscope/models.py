"""Model assembly for both tasks.

A tagger is embedding -> optional BiLSTM -> dense -> head. The cue task
labels {NC, C, MC}; the scope task labels {O, B, C, A} and feeds each
token's 0/1 cue bit to the BiLSTM as a second input. The head is a
per-token softmax or a linear-chain CRF.

VARIANTS holds one variant table per task. Cue variants: baseline
(embeddings -> dense), emb-train (the same with trainable embeddings),
bilstm, emb-crf, bilstm-crf. Scope variants: bilstm, bilstm-crf,
bilstm-post (the bilstm model plus smoothing at prediction time).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .labeling import CUE_TAGS, SCOPE_TAGS
from .layers import (
    CrfParams,
    DenseParams,
    EmbeddingParams,
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

CHECKPOINT_FORMAT = 2

# bound on sentences x longest length per prediction chunk (nothing is padded)
PREDICT_TOKEN_BUDGET = 256

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
    task: str  # "cue" | "scope"
    variant: str
    vocab_size: int
    embed_dim: int
    units: int
    head: str  # "softmax" | "crf"
    use_lstm: bool
    two_input: bool
    embeddings_trainable: bool
    labels: tuple[str, ...]
    oov_index: int = 0

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def smooth_predictions(self) -> bool:
        return self.variant.endswith("-post")


def tagger_config(task: str, variant: str, vocab_size: int, embed_dim: int,
                  units: int) -> TaggerConfig:
    """The variant table's architecture; the scope task reads cue bits as
    its second input."""
    if task not in VARIANTS:
        raise ValueError(f"unknown task {task!r}")
    if variant not in VARIANTS[task]:
        raise ValueError(
            f"unknown {task} variant {variant!r}; pick from {sorted(VARIANTS[task])}"
        )
    opts = VARIANTS[task][variant]
    return TaggerConfig(
        task=task, variant=variant, vocab_size=vocab_size, embed_dim=embed_dim,
        units=units, head=opts["head"], use_lstm=opts["use_lstm"],
        two_input=task == "scope", embeddings_trainable=opts["embeddings_trainable"],
        labels=CUE_TAGS if task == "cue" else SCOPE_TAGS,
    )


def scope_base(variant: str) -> str:
    """The trained architecture behind a scope variant; -post adds only the
    prediction-time smoother, so it shares its base model's weights."""
    return variant.removesuffix("-post")


class Tagger:
    """Parameters plus the wiring between them; losses live in training."""

    def __init__(self, config: TaggerConfig, embedding: EmbeddingParams,
                 lstm_fwd: LstmParams | None, lstm_bwd: LstmParams | None,
                 dense: DenseParams, crf: CrfParams | None):
        self.config = config
        self.embedding = embedding
        self.lstm_fwd = lstm_fwd
        self.lstm_bwd = lstm_bwd
        self.dense = dense
        self.crf = crf

    @classmethod
    def build(cls, config: TaggerConfig, rng: np.random.Generator,
              embedding_matrix: np.ndarray | None = None) -> "Tagger":
        if embedding_matrix is not None:
            want = (config.embed_dim, config.vocab_size)
            if embedding_matrix.shape != want:
                raise ValueError(
                    f"embedding matrix shape {embedding_matrix.shape} != {want}"
                )
            embedding = EmbeddingParams(
                np.array(embedding_matrix, dtype=np.float64),
                config.oov_index, config.embeddings_trainable,
            )
        else:
            embedding = init_embedding(
                config.embed_dim, config.vocab_size, config.oov_index, rng,
                config.embeddings_trainable,
            )
        lstm_fwd = lstm_bwd = None
        width = config.embed_dim
        if config.use_lstm:
            lstm_fwd = init_lstm(config.units, config.embed_dim, rng, config.two_input)
            lstm_bwd = init_lstm(config.units, config.embed_dim, rng, config.two_input)
            width = 2 * config.units
        dense = init_dense(config.num_labels, width, rng)
        crf = init_crf(config.num_labels) if config.head == "crf" else None
        return cls(config, embedding, lstm_fwd, lstm_bwd, dense, crf)

    # -- parameter book-keeping ------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Name -> live array, in a stable order."""
        out: dict[str, np.ndarray] = {"emb.E": self.embedding.weights}
        for tag, lstm in (("f", self.lstm_fwd), ("b", self.lstm_bwd)):
            if lstm is not None:
                out.update({f"lstm.{tag}.{k}": v for k, v in lstm.arrays().items()})
        out["dense.W"] = self.dense.weights
        out["dense.b"] = self.dense.bias
        if self.crf is not None:
            out["crf.T"] = self.crf.trans
        return out

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        params = self.parameters()
        if not self.embedding.trainable:
            params.pop("emb.E")
        return params

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.parameters().items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, arr in self.parameters().items():
            arr[:] = snapshot[name]

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
        embedded = embed(self.embedding, ids)
        if self.config.use_lstm:
            states, lstm_cache = bilstm_forward(
                self.lstm_fwd, self.lstm_bwd, embedded, aux, lengths, keep_cache
            )
        else:
            states, lstm_cache = embedded, None
        scores = dense_forward(self.dense, states)
        cache = {"ids": ids, "lengths": lengths, "states": states, "lstm": lstm_cache}
        return scores, cache

    def predict_ids(self, token_ids, cue_bits=None) -> list[list[int]]:
        """Label ids per sentence, in input order: the argmax per token
        (softmax head) or the Viterbi path (CRF head), ties resolving to the
        lowest label index either way. Sentences run in length_chunks
        within PREDICT_TOKEN_BUDGET; each sentence's recurrence reads only
        its own tokens, so labels do not depend on the chunk it lands in.
        """
        lengths = [len(ids) for ids in token_ids]
        if cue_bits is not None and len(cue_bits) != len(lengths):
            raise ValueError(f"{len(cue_bits)} cue bit rows for {len(lengths)} sentences")
        out: list = [None] * len(lengths)
        for chunk in length_chunks(lengths, PREDICT_TOKEN_BUDGET):
            bits = None if cue_bits is None else [cue_bits[i] for i in chunk]
            scores, _ = self.scores([token_ids[i] for i in chunk], bits, keep_cache=False)
            columns = split_columns(scores, [lengths[i] for i in chunk])
            for i, cols in zip(chunk, columns):
                if self.crf is not None:
                    out[i] = crf_viterbi(cols, self.crf)[0]
                else:
                    out[i] = cols.argmax(axis=0).tolist()
        return out

    def predict_tags(self, token_ids, cue_bits=None) -> list[list[str]]:
        labels = self.config.labels
        return [[labels[k] for k in ids] for ids in self.predict_ids(token_ids, cue_bits)]


def length_chunks(lengths, budget: int):
    """Sentence indices, stably sorted by length, cut into chunks whose
    count x longest length stays within budget; a sentence longer than the
    budget runs alone."""
    chunk: list[int] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and (len(chunk) + 1) * lengths[i] > budget:
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def split_columns(scores: np.ndarray, lengths) -> list[np.ndarray]:
    """(L, T) scores -> one (L, n) block per sentence."""
    return np.split(scores, np.cumsum(lengths)[:-1], axis=1)


# ---------------------------------------------------------------------------
# checkpoints
#
# A checkpoint is a numpy .npz archive. Entry "__meta__" is a JSON string:
#   {"format": 2, "task", "variant", "labels", "vocab_size", "embed_dim",
#    "units", "head", "use_lstm", "two_input", "embeddings_trainable",
#    "oov_index", "vocab_sha256"}
# Every other entry is one float64 parameter array stored under the names
# Tagger.parameters() uses: emb.E, dense.W, dense.b, crf.T and, per LSTM
# direction (f, b), the fused blocks lstm.f.w_in (4U, d), lstm.f.w_rec
# (4U, U), lstm.f.b (4U,) and, for the scope model, lstm.f.w_aux (4U, d),
# gates stacked in the order i, f, o, g. The scope cell reads only the row
# sums of w_aux (see LstmParams) but stores and trains the full block.
# Format 1 stored per-gate arrays and is rejected.

def save_checkpoint(path, tagger: Tagger, vocab_hash: str) -> None:
    cfg = tagger.config
    meta = {
        "format": CHECKPOINT_FORMAT,
        "task": cfg.task,
        "variant": cfg.variant,
        "labels": list(cfg.labels),
        "vocab_size": cfg.vocab_size,
        "embed_dim": cfg.embed_dim,
        "units": cfg.units,
        "head": cfg.head,
        "use_lstm": cfg.use_lstm,
        "two_input": cfg.two_input,
        "embeddings_trainable": cfg.embeddings_trainable,
        "oov_index": cfg.oov_index,
        "vocab_sha256": vocab_hash,
    }
    arrays = {name: arr.astype(np.float64) for name, arr in tagger.parameters().items()}
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> tuple[Tagger, dict]:
    with np.load(path, allow_pickle=False) as data:
        if "__meta__" not in data:
            raise ValueError(f"{path}: not a tagger checkpoint (missing __meta__)")
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            hint = "; it holds per-gate LSTM weights, retrain" if meta.get("format") == 1 else ""
            raise ValueError(f"{path}: unsupported checkpoint format {meta.get('format')}{hint}")
        arrays = {name: np.array(data[name], dtype=np.float64)
                  for name in data.files if name != "__meta__"}

    config = _checked_config(path, meta)
    tagger = Tagger.build(config, np.random.default_rng(0))
    params = tagger.parameters()
    if set(params) != set(arrays):
        raise ValueError(
            f"{path}: parameter set mismatch: {sorted(set(params) ^ set(arrays))}"
        )
    for name, arr in params.items():
        if arrays[name].shape != arr.shape:
            raise ValueError(
                f"{path}: {name} has shape {arrays[name].shape}, expected {arr.shape}"
            )
        arr[:] = arrays[name]
    return tagger, meta


def _checked_config(path, meta: dict) -> TaggerConfig:
    """The config a checkpoint's task and variant imply, after checking the
    stored architecture against it. Stored trainable embeddings may widen a
    frozen variant (the embeddings_trainable flag), never the reverse."""
    try:
        expected = tagger_config(meta["task"], meta["variant"], meta["vocab_size"],
                                 meta["embed_dim"], meta["units"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for key in ("labels", "head", "use_lstm", "two_input", "embeddings_trainable"):
        stored = tuple(meta[key]) if key == "labels" else meta[key]
        want = getattr(expected, key)
        if stored != want and not (key == "embeddings_trainable" and stored):
            raise ValueError(f"{path}: {key}={stored!r} does not match {meta['task']} "
                             f"variant {meta['variant']!r}, which has {want!r}")
    return replace(expected, embeddings_trainable=meta["embeddings_trainable"],
                   oov_index=meta["oov_index"])
