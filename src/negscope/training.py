"""Losses, the Adam optimizer, and the training loop.

Loss is the per-token mean NLL within a batch: the softmax head sums
per-token cross-entropy, the CRF head contributes its sequence NLL, and
either sum is divided by the batch's token count. Runs
are deterministic given the seed: init, shuffles, and updates all flow
from it.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluation import counts_report, sentence_counts
from .layers import (
    ColumnGrad, bilstm_backward, crf_nll_grads, dense_backward, embed_backward, on_two_threads,
)
from .models import Tagger, named_arrays

log = logging.getLogger("negscope.training")


# ---------------------------------------------------------------------------
# losses

def softmax_seq_grads(scores, gold) -> tuple[float, np.ndarray]:
    """Summed per-token softmax NLL over score columns plus d(loss)/d(scores).

    Computed from raw scores through a per-column log-sum-exp, so it is
    stable without clamping any probability.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(gold)
    cols = np.arange(s.shape[1])
    top = s.max(axis=0)
    lse = top + np.log(np.exp(s - top).sum(axis=0))
    loss = float((lse - s[y, cols]).sum())
    d_scores = np.exp(s - lse)
    d_scores[y, cols] -= 1.0
    return loss, d_scores


def instance_loss_grads(tagger: Tagger, token_ids, gold, cue_bits=None):
    """Forward + full backward for a batch of instances, given as lists of
    per-sentence arrays (cue_bits only for the scope task).

    Returns (summed loss, token count, gradient dict) where the gradient
    keys match tagger.trainable_parameters() and a trainable embedding's
    gradient is the ColumnGrad of the ids the batch holds. The CRF head
    takes the whole batch in one packed call, as the BiLSTM does.
    """
    scores, cache = tagger.scores(token_ids, cue_bits)
    y = np.concatenate(gold)
    d_trans = None
    if tagger.crf is not None:
        nlls, d_scores, d_trans = crf_nll_grads(scores, tagger.crf, y, cache["lengths"])
        loss_sum = 0.0
        for nll in nlls:  # not sum(), whose rounding changed in Python 3.12
            loss_sum += nll
    else:
        loss_sum, d_scores = softmax_seq_grads(scores, y)

    d_w, d_b, d_states = dense_backward(tagger.params["dense.W"], cache["states"], d_scores)
    g_f = g_b = None
    d_embedded = d_states
    if tagger.config.use_lstm:
        g_f, g_b, d_embedded = bilstm_backward(
            tagger.lstm("f"), tagger.lstm("b"), cache["lstm"], d_states
        )

    d_emb = (embed_backward(tagger.params["emb.E"], cache["ids"], d_embedded)
             if tagger.config.embeddings_trainable else None)
    grads = named_arrays(d_emb, g_f, g_b, d_w, d_b, d_trans)
    return loss_sum, len(y), grads


# ---------------------------------------------------------------------------
# optimizer and schedule

def step_decay(epoch: int, lr0: float, every: int, factor: float) -> float:
    """lr0 * factor^floor(epoch / every); every=0 keeps the rate constant."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    if every == 0:
        return lr0
    return lr0 * factor ** (epoch // every)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scale: dict[str, float] = field(default_factory=dict)  # name -> factor on its step

    @classmethod
    def init(cls, params: dict[str, np.ndarray], scale=None) -> "AdamState":
        return cls({k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()}, scale=scale or {})


# elements per Adam pass: 256 KB per float64 array, so a chunk of p, m, v
# and g plus the two scratch buffers (1.5 MB) stays in a 2 MB per-core L2
ADAM_CHUNK = 1 << 15


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray | ColumnGrad],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place.

    Every gradient is checked before anything changes: a non-finite one, or
    one whose shape differs from its parameter's, is a hard error naming
    the parameter and leaves the parameters and the state as they were.
    The update, at lr times state.scale.get(name, 1), then runs over each
    parameter's flattened arrays one ADAM_CHUNK at a time; a parameter or
    moment that cannot be flattened without a copy raises.

    A ColumnGrad is the gradient of a (d, v) matrix that is zero outside
    its columns, which must be distinct and in [0, v). Those columns take
    the full update on a gathered copy, every column takes the update for
    a zero gradient, and the copy is scattered back: the dense update's
    bits, except that a moment of -0.0 outside the columns keeps its sign
    where b1*m + 0.0 would give +0.0.

    The chunks are split by element count between this thread and the
    layers worker thread. The update is elementwise and no two chunks
    share an element, so the split does not change a bit. Gathers,
    scatters and scratch buffers stay on this thread: the worker only
    runs numpy's in-place loops on views made here.
    """
    tasks, gathered = [], []
    for name, p in params.items():
        g, cols = grads[name], None
        if isinstance(g, ColumnGrad):
            cols, g = _checked_columns(name, p, g)
        elif g.shape != p.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, not {p.shape}")
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for {name}")
        arrays = (p, state.m[name], state.v[name])
        try:
            flat = [np.reshape(a, -1, copy=False) for a in arrays]
        except ValueError:
            raise ValueError(f"{name} or its Adam moments cannot be updated in place") from None
        g, scale = np.reshape(g, -1), state.scale.get(name, 1.0)
        if cols is not None:  # a gather copies, so a later failed check changes nothing
            touched = [np.ascontiguousarray(a.T[cols]) for a in arrays]  # (k, d) each
            gathered.append((arrays, cols, touched))
            tasks += _chunk_tasks([a.reshape(-1) for a in touched], g, scale)
            g = None
        tasks += _chunk_tasks(flat, g, scale)

    state.step += 1
    bounds = np.cumsum([0] + [task[0].size for task in tasks])
    cut = int(np.abs(2 * bounds - bounds[-1]).argmin())
    on_two_threads(_adam_chunks,
                   (tasks[:cut], state, lr, (np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK))),
                   (tasks[cut:], state, lr, (np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK))))
    for arrays, cols, touched in gathered:
        for a, block in zip(arrays, touched):
            a.T[cols] = block


def _chunk_tasks(flat, g, scale: float) -> list[tuple]:
    """(p, m, v, g, scale): views of one ADAM_CHUNK each over flattened p,
    m, v and g (None is the zero gradient), and the factor on their step."""
    chunks = [slice(lo, lo + ADAM_CHUNK) for lo in range(0, flat[0].size, ADAM_CHUNK)]
    return [(*(a[c] for a in flat), None if g is None else g[c], scale) for c in chunks]


def _checked_columns(name: str, p: np.ndarray, grad: ColumnGrad):
    """A column gradient's (cols, values) once they fit p, a (d, v) matrix."""
    cols, values = np.asarray(grad.cols), np.asarray(grad.values)
    if cols.ndim != 1 or values.shape != (cols.size, p.shape[0]):
        raise ValueError(f"gradient for {name} has {cols.shape} columns and a "
                         f"{values.shape} block, not (k,) and (k, d) for {p.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= p.shape[1]):
        raise ValueError(f"gradient for {name} has a column outside [0, {p.shape[1]})")
    # a plain np.unique imports numpy.ma on its first call in a process
    ordered = np.sort(cols)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError(f"gradient for {name} repeats a column")
    return cols, values


def _adam_chunks(tasks, state: AdamState, lr: float, scratch) -> None:
    """One thread's share of an Adam step: each task's (p, m, v, g) chunk
    views updated in turn, in place, at lr * scale; g None is the zero gradient."""
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for pc, mc, vc, gc, scale in tasks:
        buf, update = (a[:pc.size] for a in scratch)
        # in place, in the operation order of m = b1*m + (1-b1)*g, v = b2*v +
        # (1-b2)*g*g, p -= lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
        if gc is None:  # b1*m + (1-b1)*0.0 is b1*m, up to the sign of a zero
            mc *= b1
            vc *= b2
        else:
            np.multiply(1 - b1, gc, out=buf)
            mc *= b1
            mc += buf
            np.multiply(1 - b2, gc, out=buf)
            buf *= gc
            vc *= b2
            vc += buf
        np.divide(vc, 1 - b2 ** t, out=buf)
        np.sqrt(buf, out=buf)
        buf += state.eps
        np.divide(mc, 1 - b1 ** t, out=update)
        update *= lr * scale
        update /= buf
        pc -= update


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr0: float = 0.001
    decay_every: int = 10
    decay_factor: float = 0.5
    early_stopping: bool = False
    patience: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not 0 < self.lr0 < math.inf:
            raise ValueError("epochs and batch_size must be >= 1 and lr0 finite and > 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.decay_every < 0 or not 0 < self.decay_factor <= 1:
            raise ValueError("decay_every must be >= 0 and decay_factor in (0, 1]")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_f1: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int | None = None


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, history: TrainHistory):
        super().__init__(message)
        self.history = history


def batch_inputs(tagger: Tagger, data) -> tuple[list, list, list | None]:
    """(token ids, gold label ids, cue bits) of encoded instances, as
    per-sentence lists; the cue bits are None for the cue task."""
    ids = [inst.token_ids for inst in data]
    if tagger.config.task == "cue":
        return ids, [inst.cue_label_ids for inst in data], None
    return ids, [inst.scope_label_ids for inst in data], [inst.cue_bits for inst in data]


def token_f1_score(tagger: Tagger, data) -> float:
    """Validation token F1 for the tagger's task over encoded instances."""
    ids, _, bits = batch_inputs(tagger, data)
    task = tagger.config.task
    golds = [inst.cue_tags if task == "cue" else inst.scope_tags for inst in data]
    preds = tagger.predict_tags(ids, bits)
    return counts_report(sentence_counts(preds, golds, task), task).token.f1


def train(tagger: Tagger, train_data, val_data, config: TrainConfig,
          log_line=None) -> TrainHistory:
    """Adam over shuffled mini-batches with step-decayed learning rate.

    Validation token F1 is scored each epoch; with early stopping on,
    `patience` epochs without improvement stop the run and the best
    epoch's trainable parameters, copied into one buffer per parameter
    at each improvement, are restored. A NaN score (a model that predicts
    no positive label yet) never improves, and patience counts only from
    the first finite score; a run that never scores one keeps the last
    epoch's weights and says so through log_line.
    """
    if not train_data:
        raise ValueError("empty training set")
    emit = log_line or (lambda msg: log.info("%s", msg))
    params = tagger.trainable_parameters()
    # a scope model's w_aux (4U,) sums the rows of a (4U, d) block, each of
    # whose d entries would take the same Adam step: it moves d times as far
    adam = AdamState.init(params, {k: tagger.config.embed_dim for k in params if "w_aux" in k})
    rng = np.random.default_rng([config.seed, 1])
    history = TrainHistory()
    best_f1 = -math.inf
    best = ({name: np.empty_like(p) for name, p in params.items()}
            if config.early_stopping and val_data else None)
    since_best = 0

    for epoch in range(config.epochs):
        lr = step_decay(epoch, config.lr0, config.decay_every, config.decay_factor)
        order = rng.permutation(len(train_data))
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_data[i] for i in order[start:start + config.batch_size]]
            batch_loss, batch_tokens, grads = instance_loss_grads(
                tagger, *batch_inputs(tagger, batch))
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(f"loss diverged at epoch {epoch}", history)
            for grad in grads.values():
                if isinstance(grad, ColumnGrad):
                    grad = grad.values
                grad /= batch_tokens
            adam_step(params, grads, adam, lr)
            del grads, grad  # freed before the next minibatch's forward pass
            epoch_loss += batch_loss
            epoch_tokens += batch_tokens

        train_loss = epoch_loss / epoch_tokens
        val_f1 = token_f1_score(tagger, val_data) if val_data else math.nan
        history.train_loss.append(train_loss)
        history.val_f1.append(val_f1)
        history.lr.append(lr)
        emit(f"epoch={epoch} loss={train_loss:.6f} val_f1={val_f1:.4f} lr={lr:.8f}")

        if config.early_stopping and val_data:
            if not math.isnan(val_f1) and val_f1 > best_f1:
                best_f1 = val_f1
                for name, p in params.items():
                    np.copyto(best[name], p)
                history.best_epoch = epoch
                since_best = 0
            elif history.best_epoch is not None:
                since_best += 1
                if since_best >= config.patience:
                    history.stopped_early = True
                    break

    if history.best_epoch is not None:
        for name, p in params.items():
            np.copyto(p, best[name])
    elif best is not None:
        emit("val_f1 was nan in every epoch: no best epoch, the last epoch's weights are kept")
    return history
