"""Layer forward/backward passes, written out by hand on numpy.

Shapes: a batch of sentences, T tokens in all, flows through packed, one
sentence after another:
    token ids (T,) -> embedded (T, d) -> BiLSTM (T, 2U) -> scores (L, T)
and the score columns feed either a per-token softmax or a linear-chain
CRF. The LSTM and every CRF pass (marginals, NLL, Viterbi) take the
sentence lengths and run step-major over packed_steps' layout, padding
nothing. Each sentence's CRF results are bitwise the ones it gives alone;
its LSTM states agree with those to float rounding, since a one-row step
and a short sentence's small products round differently in BLAS.
Gradients mirror each forward exactly; nothing here depends on autodiff.
The embedding and dense layers take plain arrays; LstmParams and CrfParams
name a fused layout's parts, as views of a tagger's table (models.Tagger).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import logsumexp

GATES = ("i", "f", "o", "g")


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform init on +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


# ---------------------------------------------------------------------------
# embeddings

def init_embedding(
    embed_dim: int, vocab_size: int, oov_index: int, rng: np.random.Generator
) -> np.ndarray:
    w = glorot(rng, embed_dim, vocab_size)
    w[:, oov_index] = 0.0  # unknown tokens start as the zero vector
    return w


def embed(weights: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
    """ids (n,) -> embedded (n, d), row k = column token_ids[k] of the (d, v) matrix."""
    ids = np.asarray(token_ids)
    vocab_size = weights.shape[1]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError(f"token id out of range [0, {vocab_size}): {ids.min()}..{ids.max()}")
    return weights.T[ids]


class ColumnGrad(NamedTuple):
    """The gradient of a (d, v) matrix that is zero outside a few columns:
    the distinct column indices (k,) and their block (k, d), row j holding
    column cols[j]."""

    cols: np.ndarray
    values: np.ndarray


def embed_backward(
    weights: np.ndarray, token_ids: np.ndarray, d_embedded: np.ndarray
) -> ColumnGrad:
    """The embedding gradient on the columns the ids touch, ascending. A
    repeated id sums its rows in token order, starting from zero, so each
    column has the bits a scatter-add into the full matrix gives it."""
    cols, rows = np.unique(np.asarray(token_ids), return_inverse=True)
    values = np.zeros((cols.size, weights.shape[0]), dtype=weights.dtype)
    np.add.at(values, rows, d_embedded)
    return ColumnGrad(cols, values)


# ---------------------------------------------------------------------------
# LSTM
#
# The recurrence runs step-major over a packed batch (T, d): sentences are
# ordered longest first, and step k is one block of rows holding the k-th
# token, in recurrence order, of each of the batch_sizes[k] sentences still
# running. Each block's rows continue the first rows of the block before
# it, so step k updates only that active prefix and nothing is padded.
# The step product reads a per-call C-contiguous copy of w_rec.T: on the
# transposed view OpenBLAS's small-M kernels ran up to 1.8x slower at
# U=200 (b = 2..85 rows), and the copy costs about one step. Step 0 starts
# from the zero state, so it runs no recurrent product forward and sends
# no gradient to a step before it backward.
# All four gates take one tanh: sigmoid(z) = tanh(z/2)/2 + 1/2, and
# halving is exact (absent subnormals), so the i, f and o columns of the
# w_rec.T copy, the projection tables and the cue-bit row are halved, one
# tanh runs over the (b, 4U) block, and the whole block then takes *0.5,
# +0.5 on the i, f and o columns and *1.0, +(-0.0) on g: two contiguous
# passes where the first 3U columns alone would take two strided ones.
#
# The input projection x @ w_in.T + b is computed once per key, not per
# row: `keys` (T,) says which rows hold equal inputs (the tagger passes
# token ids, whose embeddings are equal), and by default every row is its
# own key. A block of whole steps projects its distinct keys into a table,
# and each step gathers its rows from it. Training keeps every step's
# gates, cell and hidden rows for the backward pass: before the first
# step it projects one whole-T table, gathers all T rows of it into the
# gates and adds the cue-bit term to them, so a step adds only its
# recurrent term. Prediction streams instead (lstm_forward with out=): a
# block ends at the last step whose distinct keys still fit a table of
# max(PROJECT_ROWS, b_0) rows, the steps run in (b_0, .) buffers, each
# step gathers its rows from the table (np.take with mode="clip", which
# copies straight into the buffer, where the default mode copies through
# a temporary) and adds its cue-bit term, and each step's h goes to its
# rows of out, so the working memory grows neither with T nor with how
# often keys repeat.
# Every table product spans at least min(T, EXACT_ROWS) rows, topped up
# with any input rows, because OpenBLAS rounds small products differently:
# with d >= 32 and under about 1,200 outputs (rows x 4U), a row of a small
# product could differ from that row of the whole-T product. From
# EXACT_ROWS rows they agree for every 4U >= 40 (pinned by a test), so
# every table row, in either mode, has the bits of one whole-T product.
#
# A BiLSTM's two directions share nothing until their states are joined,
# so they run at once: left to right on the calling thread, right to left
# on the worker thread below. numpy releases the interpreter lock in
# BLAS and in ufunc loops over large arrays, which is where a step spends
# its time; each BLAS call keeps the thread count its caller set. Each
# direction writes only its own arrays (the forward's two halves of the
# states are disjoint columns) and the caller sums d_inputs after both
# finish, so every result is bitwise the one a sequential run gives.
# Running both at once raised training's traced peak at d = U = 200 by up
# to 2.9 MB; streaming, a direction holds about 3.7 MB at 64 sentences.
#
# The same single worker also runs half of each Adam step (training.py),
# so it is the package's only extra thread. A task running on it must not
# call on_two_threads, which would wait on itself.
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="negscope-worker")
PROJECT_ROWS = 96
EXACT_ROWS = 32


@dataclass
class LstmParams:
    """One direction's weights, fused over the gates: rows [k*U, (k+1)*U)
    of every block belong to gate GATES[k]. `w_aux` is present only for the
    two-input cell, whose second input is one scalar a_k per step: the cell
    adds a_k * w_aux to the gate preactivations. It is the vector of row
    sums of a (4U, d) block that reads a_k as the d-wide vector a_k * 1_d."""

    w_in: np.ndarray  # (4U, d)
    w_rec: np.ndarray  # (4U, U)
    b: np.ndarray  # (4U,)
    w_aux: np.ndarray | None = None  # (4U,)

    @property
    def units(self) -> int:
        return self.w_rec.shape[1]

    @property
    def in_dim(self) -> int:
        return self.w_in.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        """Block name -> array, in a stable order."""
        out = {"w_in": self.w_in, "w_rec": self.w_rec, "b": self.b}
        if self.w_aux is not None:
            out["w_aux"] = self.w_aux
        return out


def init_lstm(
    units: int, in_dim: int, rng: np.random.Generator, two_input: bool = False
) -> LstmParams:
    """Glorot per gate (fan-in plus fan-out of one (U, cols) gate), zero bias."""

    def fused(cols: int) -> np.ndarray:
        return np.vstack([glorot(rng, units, cols) for _ in GATES])

    return LstmParams(
        fused(in_dim), fused(units), np.zeros(4 * units),
        fused(in_dim).sum(axis=1) if two_input else None,
    )


@dataclass
class LstmCache:
    inputs: np.ndarray  # (T, d), step-major
    aux: np.ndarray | None  # (T,)
    gates: np.ndarray | None  # (T, 4U): sigmoid of i, f, o and tanh of g; None once consumed
    cell: np.ndarray  # (T, U)
    hidden: np.ndarray  # (T, U)
    batch_sizes: np.ndarray  # (n_max,)


def lstm_forward(
    params: LstmParams, inputs: np.ndarray, aux: np.ndarray | None, batch_sizes,
    rows, out: np.ndarray | None = None, keys=None,
) -> tuple[np.ndarray, LstmCache | None]:
    """Inputs (T, d) [, aux (T,)] -> (hidden (T, U), cache).

    Step-major row r reads inputs[rows[r]], aux[rows[r]] and keys[rows[r]]
    (packed_steps gives the rows). State starts at zero for every
    sentence, and step k is one (b_k, U) @ (U, 4U) product over its
    b_k = batch_sizes[k] rows. Aux inputs must be supplied iff the params
    carry aux weights. Rows with equal keys (T,) must hold equal inputs;
    their projection is computed once. Without keys every row is its own
    key.

    Without `out`, the hidden rows come back step-major along with the
    cache lstm_backward reads. Given out (T, U), row r's hidden state is
    written to out[rows[r]], nothing T-sized is kept, and the result is
    (out, None), bitwise the same states.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"expected inputs (T, {params.in_dim}), got {x.shape}")
    if (aux is None) != (params.w_aux is None):
        raise ValueError("aux inputs must be present iff params has aux weights")
    q = None
    if aux is not None:
        q = np.asarray(aux, dtype=np.float64)
        if q.shape != x.shape[:1]:
            raise ValueError(f"aux shape {q.shape} != input rows {x.shape[:1]}")
    total, units = len(x), params.units
    sizes = np.asarray(batch_sizes)
    if (sizes.ndim != 1 or not len(sizes) or sizes.dtype.kind not in "iu"
            or sizes.min() < 1 or (np.diff(sizes) > 0).any() or sizes.sum() != total):
        raise ValueError(f"batch_sizes {sizes.tolist()} not >= 1, non-increasing, sum {total}")
    if np.shape(rows) != (total,):
        raise ValueError(f"rows shape {np.shape(rows)} != input rows {(total,)}")
    if out is not None and out.shape != (total, units):
        raise ValueError(f"expected out {(total, units)}, got {out.shape}")
    keys = np.arange(total) if keys is None else np.asarray(keys)
    if keys.shape != (total,):
        raise ValueError(f"keys shape {keys.shape} != input rows {(total,)}")

    keep = out is None
    keys, q = keys[rows], None if q is None else q[rows]
    if keep:
        cell, hidden = np.empty((total, units)), np.empty((total, units))
    else:
        table = np.empty((max(PROJECT_ROWS, sizes[0]), 4 * units))
        gathered = np.empty((sizes[0], 4 * units))
        seen = _previous_occurrence(keys)
    # x @ w_in.T + b for each distinct key of a block of whole steps; each
    # step's rows are gathered from it, the cue-bit and recurrent terms
    # added, in that order, and overwritten with the activations (sigmoid
    # of i, f, o and tanh of g), each term's i, f and o columns halved on a
    # fresh array. Training's one block is gathered, and its cue-bit term
    # added, before the first step. *1.0 and +(-0.0) leave the g columns'
    # bits as they are, signed zeros and NaNs included.
    u2, u3 = 2 * units, 3 * units
    half = np.repeat([0.5, 1.0], [u3, units])
    shift = np.repeat([0.5, -0.0], [u3, units])
    aux_row = None if q is None else params.w_aux * half
    w_rec_t = np.multiply(params.w_rec.T, half, order="C")
    rec = np.empty((sizes[0], 4 * units))
    tmp = np.empty((sizes[0], units))
    ends = np.cumsum(sizes)
    h, c = np.zeros((sizes[0], units)), np.zeros((sizes[0], units))
    lo = hi = 0
    for start, size in zip(ends - sizes, sizes):
        if start == hi:
            lo = start
            if keep:
                hi = total
            else:
                # a row is new to [lo, e) iff its key last occurred before lo;
                # end at the last step whose new rows still fit the table
                fresh = np.cumsum(seen[lo:] < lo)
                later = ends[np.searchsorted(ends, lo, side="right"):]
                hi = later[np.searchsorted(fresh[later - lo - 1], len(table), side="right") - 1]
            _, first, slot = np.unique(keys[lo:hi], return_index=True, return_inverse=True)
            src = np.concatenate([rows[first + lo], np.arange(min(total, EXACT_ROWS) - len(first))])
            proj = np.matmul(x[src], params.w_in.T, out=None if keep else table[:len(src)])
            proj += params.b
            proj *= half
            if keep:
                gates = proj[slot]
                if q is not None:
                    gates += q[:, None] * aux_row
        step = slice(start, start + size)
        if keep:
            z = gates[step]
        else:
            z = np.take(proj, slot[start - lo:start - lo + size], axis=0,
                        out=gathered[:size], mode="clip")
            if q is not None:  # rec's rows hold the product until the recurrent term
                z += np.multiply(q[step, None], aux_row, out=rec[:size])
        t = tmp[:size]
        if start:
            z += np.matmul(h[:size], w_rec_t, out=rec[:size])
        np.tanh(z, out=z)
        z *= half
        z += shift
        # c = f*c_prev + i*g and h = o*tanh(c), written straight into the
        # cache or, streaming, over the previous step's first rows
        c_prev = c[:size]
        c, h = (cell[step], hidden[step]) if keep else (c_prev, h[:size])
        np.multiply(z[:, units:u2], c_prev, out=c)
        c += np.multiply(z[:, :units], z[:, u3:], out=t)
        np.multiply(z[:, u2:u3], np.tanh(c, out=t), out=h)
        if not keep:
            out[rows[step]] = h

    if not keep:
        return out, None
    return hidden, LstmCache(x[rows], q, gates, cell, hidden, sizes)


def lstm_backward(
    params: LstmParams, cache: LstmCache, d_hidden: np.ndarray
) -> tuple[LstmParams, np.ndarray, np.ndarray | None]:
    """d_hidden (T, U) -> (param grads, d_inputs (T, d), d_aux (T,)), all in
    the cache's step-major layout.

    The call consumes the cache: d(preactivation) is built in place over
    its gates, which are then dropped from it, and a second call on the
    same cache raises ValueError."""
    dh_out = np.asarray(d_hidden, dtype=np.float64)
    if dh_out.shape != cache.hidden.shape:
        raise ValueError(f"expected d_hidden {cache.hidden.shape}, got {dh_out.shape}")
    if cache.gates is None:
        raise ValueError("this LSTM cache was consumed by an earlier lstm_backward; "
                         "run lstm_forward again for a fresh one")
    flat, cache.gates = cache.gates, None  # (T, 4U), becomes d(preactivation)

    sizes = cache.batch_sizes
    total, units = cache.hidden.shape
    first = sizes[0]
    # row r of step k >= 1 continues row r - batch_sizes[k-1] of step k-1
    prev = np.arange(first, total) - np.repeat(sizes[:-1], sizes[1:])
    # in place, each gate slot becomes d(gate output)/d(preactivation)
    # times the factor the gate meets in c = f*c_prev + i*g and h =
    # o*tanh(c): g*i*(1-i), c_prev*f*(1-f), tanh(c)*o*(1-o), i*(1-g*g), in
    # that operation order (IEEE products commute). The loop then scales
    # the o slot by dh and the rest by dc, which leaves d(preactivation).
    # Only f (the loop reads it) and i (the g slot does) are copied.
    i, f, o, g = np.split(flat, 4, axis=1)
    tmp = np.tanh(cache.cell)
    dc_dh = o * (1 - tmp * tmp)
    tmp *= o
    np.multiply(tmp, 1 - o, out=o)
    f_gate, i_gate = f.copy(), i.copy()
    np.subtract(1, i, out=tmp)
    i *= g
    i *= tmp
    np.multiply(g, g, out=g)
    np.subtract(1, g, out=g)
    g *= i_gate
    del i_gate
    f[first:] *= np.take(cache.cell, prev, axis=0, out=tmp[first:])
    f[:first] *= 0.0  # step 0's c_prev is the zero state
    f *= np.subtract(1, f_gate, out=tmp)
    dpre = flat.reshape(total, 4, units)

    # gradients flowing into step k-1 from step k; rows past batch_sizes[k]
    # belong to sentences that end at step k-1 and keep their zero
    dh_rec = np.zeros((first, units))
    dc_rec = np.zeros((first, units))
    for start, size in zip((np.cumsum(sizes) - sizes)[::-1], sizes[::-1]):
        step = slice(start, start + size)
        dh = dh_out[step] + dh_rec[:size]
        dc = dh * dc_dh[step] + dc_rec[:size]
        dpre[step, :2] *= dc[:, None, :]
        dpre[step, 2] *= dh
        dpre[step, 3] *= dc
        if start:
            np.matmul(dpre[step].reshape(size, 4 * units), params.w_rec, out=dh_rec[:size])
            np.multiply(dc, f_gate[step], out=dc_rec[:size])
    del dc_dh, f_gate

    h_prev = np.take(cache.hidden, prev, axis=0, out=tmp[first:])
    grads = LstmParams(flat.T @ cache.inputs, flat[first:].T @ h_prev, flat.sum(axis=0),
                       None if cache.aux is None else flat.T @ cache.aux)
    return grads, flat @ params.w_in, None if cache.aux is None else flat @ params.w_aux


def packed_steps(lengths: np.ndarray, reverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """(rows (T,), batch_sizes (n_max,)): row r of the step-major layout
    reads input row rows[r], right to left with reverse=True. Sentences run
    stably longest first, so batch_sizes[k], the count still running, never grows."""
    order = np.argsort(-lengths, kind="stable")
    batch_sizes = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
    starts = np.cumsum(batch_sizes) - batch_sizes
    steps = np.repeat(np.arange(len(batch_sizes)), batch_sizes)
    sentence = order[np.arange(len(steps)) - starts[steps]]
    pos = lengths[sentence] - 1 - steps if reverse else steps
    return np.cumsum(lengths)[sentence] - lengths[sentence] + pos, batch_sizes


def _previous_occurrence(keys: np.ndarray) -> np.ndarray:
    """(T,): for each row, the last earlier row with its key, or -1."""
    order = np.argsort(keys, kind="stable")
    repeat = keys[order[1:]] == keys[order[:-1]]
    prev = np.full(len(keys), -1)
    prev[order[1:][repeat]] = order[:-1][repeat]
    return prev


def on_two_threads(run, here: tuple, there: tuple) -> tuple:
    """(run(*here), run(*there)), the second on the worker thread. The
    worker is always waited for, so no half outlives the call, and an
    exception from either half propagates."""
    future = _WORKER.submit(run, *there)
    try:
        first = run(*here)
    finally:
        wait((future,))
    return first, future.result()


def bilstm_forward(
    fwd: LstmParams,
    bwd: LstmParams,
    inputs: np.ndarray,
    aux: np.ndarray | None,
    lengths,
    keep_cache: bool = True,
    keys=None,
) -> tuple[np.ndarray, tuple | None]:
    """Packed inputs (T, d) [+ aux (T,)] -> states (T, 2U): the sentences
    of the given lengths lie one after another, and each row holds its
    token's left-to-right then right-to-left state. Rows with equal keys
    (T,) hold equal inputs (lstm_forward).

    The cache is (LstmCache, rows) per direction. keep_cache=False, for
    callers with no backward, streams each direction straight into the
    states: its working memory is a few step-sized buffers and a table of
    PROJECT_ROWS projected keys, and beyond the states nothing grows with
    T but the packed row order and its keys."""
    x = np.asarray(inputs, dtype=np.float64)
    lengths = _split_lengths(lengths, len(x), "rows")
    units = fwd.units
    states = np.empty((len(x), 2 * units))

    def direction(params, reverse, half):
        rows, batch_sizes = packed_steps(lengths, reverse)
        if not keep_cache:
            lstm_forward(params, x, aux, batch_sizes, rows, out=states[:, half], keys=keys)
            return None
        hidden, cache = lstm_forward(params, x, aux, batch_sizes, rows, keys=keys)
        states[rows, half] = hidden
        return cache, rows

    caches = on_two_threads(direction, (fwd, False, slice(0, units)),
                            (bwd, True, slice(units, 2 * units)))
    return states, caches if keep_cache else None


def bilstm_backward(
    fwd: LstmParams,
    bwd: LstmParams,
    caches: tuple,
    d_hidden: np.ndarray,
) -> tuple[LstmParams, LstmParams, np.ndarray]:
    """d_states (T, 2U) -> (fwd grads, bwd grads, d_inputs (T, d)); the aux
    input is data, so its gradient is not gathered."""
    units = fwd.units

    def direction(params, cache_rows, half):
        cache, rows = cache_rows
        return lstm_backward(params, cache, d_hidden[rows, half])[:2]

    (g_fwd, dx_fwd), (g_bwd, dx_bwd) = on_two_threads(
        direction, (fwd, caches[0], slice(0, units)), (bwd, caches[1], slice(units, 2 * units))
    )
    # summed on this thread after the join: the directions never write one array
    d_inputs = np.zeros((len(d_hidden), fwd.in_dim))
    d_inputs[caches[0][1]] += dx_fwd
    d_inputs[caches[1][1]] += dx_bwd
    return g_fwd, g_bwd, d_inputs


# ---------------------------------------------------------------------------
# dense projection

def init_dense(num_labels: int, width: int, rng: np.random.Generator) -> tuple:
    return glorot(rng, num_labels, width), np.zeros(num_labels)


def dense_forward(weights: np.ndarray, bias: np.ndarray, states: np.ndarray) -> np.ndarray:
    """states (n, width) -> scores (L, n), column k = scores for token k."""
    x = np.asarray(states, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"expected states (n, {weights.shape[1]}), got {x.shape}")
    return weights @ x.T + bias[:, None]


def dense_backward(
    weights: np.ndarray, states: np.ndarray, d_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d_scores (L, n) -> (dW, db, d_states)."""
    dw = d_scores @ states
    db = d_scores.sum(axis=1)
    d_states = d_scores.T @ weights
    return dw, db, d_states


# ---------------------------------------------------------------------------
# linear-chain CRF

@dataclass
class CrfParams:
    """Transition scores over the label set plus start/end states.

    trans has shape (L+2, L+2); row L scores start->label transitions and
    column L+1 scores label->end. Only those entries ever enter a path
    score, the rest stay untouched at their init value.
    """

    trans: np.ndarray

    @property
    def num_labels(self) -> int:
        return self.trans.shape[0] - 2

    @property
    def start(self) -> int:
        return self.num_labels

    @property
    def end(self) -> int:
        return self.num_labels + 1


def init_crf(num_labels: int) -> CrfParams:
    return CrfParams(np.zeros((num_labels + 2, num_labels + 2)))


def _check_emissions(emissions: np.ndarray, crf: CrfParams) -> np.ndarray:
    e = np.asarray(emissions, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] != crf.num_labels:
        raise ValueError(f"expected emissions ({crf.num_labels}, n), got {e.shape}")
    if e.shape[1] < 1:
        raise ValueError("empty sequence")
    return e


def crf_score(emissions: np.ndarray, crf: CrfParams, labels) -> float:
    """Path score: emissions along the labeling plus start, pairwise, and
    end transitions."""
    e = _check_emissions(emissions, crf)
    y = np.asarray(labels)
    n = e.shape[1]
    if y.shape != (n,):
        raise ValueError(f"expected {n} labels, got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= crf.num_labels):
        raise ValueError("label out of range")
    t = crf.trans
    score = e[y, np.arange(n)].sum() + t[crf.start, y[0]] + t[y[-1], crf.end]
    score += t[y[:-1], y[1:]].sum()
    return float(score)


def _split_lengths(lengths, total: int, unit: str) -> np.ndarray:
    """lengths (S,) as int64, once they split `total` rows or columns."""
    lens = np.array(lengths, dtype=np.int64)
    if lens.sum() != total or (lens < 1).any():
        raise ValueError(f"lengths {lens.tolist()} do not split {total} {unit}")
    return lens


def _lattice(e: np.ndarray, lens: np.ndarray, crf: CrfParams, reverse: bool) -> np.ndarray:
    """alpha (T, L) in column order, or with reverse beta: alpha[c, j] = log
    sum of path-prefix scores ending at label j in column c (end transition
    not yet applied), beta[c, i] = log sum of path-suffix scores from label
    i in column c through the end transition. Step k of packed_steps(lens,
    reverse) extends the first b_k rows of step k-1 by each sentence's own
    per-position operations, so every row is bitwise the sentence's alone."""
    num_labels = crf.num_labels
    t = crf.trans[:num_labels, :num_labels]
    rows, sizes = packed_steps(lens, reverse)
    steps = e.T[rows]  # (T, L), step-major
    out = np.empty_like(steps)
    if reverse:
        out[:sizes[0]] = crf.trans[:num_labels, crf.end]
    else:
        out[:sizes[0]] = steps[:sizes[0]] + crf.trans[crf.start, :num_labels]
    starts = np.cumsum(sizes) - sizes
    for prev, start, size in zip(starts, starts[1:], sizes[1:]):
        before, here = slice(prev, prev + size), slice(start, start + size)
        if reverse:
            m = t + (steps[before] + out[before])[:, None, :]  # (sentence, from, to)
            mx = m.max(axis=2)
            out[here] = mx + np.log(np.exp(m - mx[:, :, None]).sum(axis=2))
        else:
            m = out[before, :, None] + t  # (sentence, from, to)
            mx = m.max(axis=1)
            out[here] = steps[here] + mx + np.log(np.exp(m - mx[:, None]).sum(axis=1))
    return out[np.argsort(rows)]  # back to column order


def crf_viterbi(emissions: np.ndarray, crf: CrfParams, lengths) -> tuple[list, list]:
    """(paths, scores): each sentence's best-scoring labeling and its score,
    for emissions (L, T) holding sentences of the given lengths one after
    another. Ties pick the lowest label index at every backtrack step. Step
    k of the packed layout maximizes over the label axis for every sentence
    still running, so each path and score is bitwise the sentence's alone."""
    e = _check_emissions(emissions, crf)
    lens = _split_lengths(lengths, e.shape[1], "columns")
    num_labels = crf.num_labels
    t = crf.trans[:num_labels, :num_labels]
    rows, sizes = packed_steps(lens, reverse=False)
    steps = e.T[rows]  # (T, L), step-major
    starts = np.cumsum(sizes) - sizes
    v = steps[:sizes[0]] + crf.trans[crf.start, :num_labels]
    back = np.empty(steps.shape, dtype=np.int64)
    for start, size in zip(starts[1:], sizes[1:]):
        m = v[:size, :, None] + t  # (sentence, from, to)
        back[start:start + size] = m.argmax(axis=1)  # argmax returns the lowest tied index
        v[:size] = steps[start:start + size] + m.max(axis=1)
    ends = v + crf.trans[:num_labels, crf.end]
    label = ends.argmax(axis=1)
    path = np.empty(len(steps), dtype=np.int64)
    for start, size in zip(starts[:0:-1], sizes[:0:-1]):
        path[start:start + size] = label[:size]
        label[:size] = back[start + np.arange(size), label[:size]]
    path[:sizes[0]] = label
    labels = path[np.argsort(rows)]
    # step 0 holds each sentence's first row, longest sentence first
    scores = np.empty(len(lens))
    scores[np.repeat(np.arange(len(lens)), lens)[rows[:sizes[0]]]] = ends.max(axis=1)
    return [part.tolist() for part in np.split(labels, np.cumsum(lens)[:-1])], scores.tolist()


def crf_marginals(
    emissions: np.ndarray, crf: CrfParams, lengths
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label marginals of S sentences of the given lengths, whose emissions
    (L, T) lie one after another: (unary (T, L), pairwise (T - S, L, L),
    log partitions (S,)). Unary rows sum to 1; pairwise holds each
    sentence's n - 1 transition tables in turn, each summing to 1."""
    e = _check_emissions(emissions, crf)
    lens = _split_lengths(lengths, e.shape[1], "columns")
    num_labels = crf.num_labels
    alpha, beta = _lattice(e, lens, crf, False), _lattice(e, lens, crf, True)
    stops = np.cumsum(lens)
    log_z = np.array([logsumexp(alpha[stop - 1] + crf.trans[:num_labels, crf.end])
                      for stop in stops])
    sentence = np.repeat(np.arange(len(lens)), lens)
    unary = np.exp(alpha + beta - log_z[sentence, None])
    inner = np.delete(np.arange(e.shape[1]), stops - 1)  # columns with a successor
    pairwise = np.exp(
        alpha[inner, :, None] + crf.trans[:num_labels, :num_labels]
        + (e.T[inner + 1] + beta[inner + 1])[:, None, :] - log_z[sentence[inner], None, None]
    )
    return unary, pairwise, log_z


def crf_nll_grads(
    emissions: np.ndarray, crf: CrfParams, gold, lengths
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """(NLL per sentence, d_emissions (L, T), d_trans) for sentences laid
    out as in crf_marginals, gold (T,) alike. The NLL is log partition
    minus gold path score; d_emissions[j, c] = P(label at c is j) -
    [gold_c == j]; d_trans holds expected minus observed transition
    counts, start and end included, built per sentence and summed in
    sentence order."""
    e = _check_emissions(emissions, crf)
    y = np.asarray(gold)
    lens = _split_lengths(lengths, e.shape[1], "columns")
    num_labels = crf.num_labels
    unary, pairwise, log_z = crf_marginals(e, crf, lens)
    nll, d_trans = [], np.zeros_like(crf.trans)
    stops = np.cumsum(lens)
    for s, (start, stop) in enumerate(zip(stops - lens, stops)):
        ys = y[start:stop]
        nll.append(float(log_z[s] - crf_score(e[:, start:stop], crf, ys)))
        d_t = np.zeros_like(crf.trans)
        d_t[:num_labels, :num_labels] = pairwise[start - s:stop - s - 1].sum(axis=0)
        np.subtract.at(d_t, (ys[:-1], ys[1:]), 1.0)
        d_t[crf.start, :num_labels] += unary[start]
        d_t[crf.start, ys[0]] -= 1.0
        d_t[:num_labels, crf.end] += unary[stop - 1]
        d_t[ys[-1], crf.end] -= 1.0
        d_trans += d_t
    d_e = unary.T.copy()
    d_e[y, np.arange(e.shape[1])] -= 1.0
    return nll, d_e, d_trans
