"""Shared test oracles: brute-force CRF enumeration, per-sentence CRF
lattices, NLL gradients and Viterbi, a scalar LSTM cell written without
numpy, an out-of-place LSTM backward, gradient-check plumbing, a
line-at-a-time column-file reader, one loop per scoring metric, a
synthetic corpus builder, and hypothesis strategies for column-file
contents. Everything here
recomputes results independently of the package code under test; the
reader oracles build the package's data classes only to hold what they
read."""
from __future__ import annotations

import itertools
import math
import re
import struct
import zipfile

import numpy as np
from hypothesis import strategies as st

from negscope.labeling import CUE_TAGS, SCOPE_TAG_IDS, SCOPE_TAGS, NegationAnnotation
from negscope.layers import LstmParams

# ---------------------------------------------------------------------------
# CRF enumeration oracle

def brute_path_scores(emissions, trans, start, end):
    """Score of every labeling, accumulated with plain Python sums."""
    num_labels, n = emissions.shape
    out = []
    for labels in itertools.product(range(num_labels), repeat=n):
        s = trans[start][labels[0]]
        for k, lab in enumerate(labels):
            s += emissions[lab][k]
        for a, b in zip(labels, labels[1:]):
            s += trans[a][b]
        s += trans[labels[-1]][end]
        out.append((labels, s))
    return out


def brute_log_partition(emissions, trans, start, end):
    scores = [s for _, s in brute_path_scores(emissions, trans, start, end)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_best_path(emissions, trans, start, end, tie_tol=1e-9):
    """Argmax labeling; among ties, the one a lowest-index backtrack picks,
    which is the labeling whose reversal is lexicographically smallest."""
    scored = brute_path_scores(emissions, trans, start, end)
    best = max(s for _, s in scored)
    tied = [labels for labels, s in scored if s >= best - tie_tol]
    pick = min(tied, key=lambda labels: tuple(reversed(labels)))
    return list(pick), best


def loop_viterbi(emissions, trans, start, end):
    """One sentence's Viterbi path and score, a label-axis numpy max per
    position and a Python backtrack: the reference a batched decoder must
    match bit for bit. Ties pick the lowest label index."""
    num_labels, n = emissions.shape
    t = trans[:num_labels, :num_labels]
    v = emissions[:, 0] + trans[start, :num_labels]
    back = []
    for k in range(1, n):
        m = v[:, None] + t
        back.append(m.argmax(axis=0))
        v = emissions[:, k] + m.max(axis=0)
    ends = v + trans[:num_labels, end]
    labels = [int(ends.argmax())]
    for pointers in reversed(back):
        labels.append(int(pointers[labels[-1]]))
    return labels[::-1], float(ends.max())


def loop_forward_lattice(emissions, trans, start, end):
    """One sentence's alpha (n, L), one position at a time: alpha[k, j] =
    log sum of the scores of path prefixes ending at label j, position k
    (end transition not yet applied)."""
    num_labels, n = emissions.shape
    t = trans[:num_labels, :num_labels]
    alpha = np.empty((n, num_labels))
    alpha[0] = emissions[:, 0] + trans[start, :num_labels]
    for k in range(1, n):
        m = alpha[k - 1][:, None] + t  # (from, to)
        mx = m.max(axis=0)
        alpha[k] = emissions[:, k] + mx + np.log(np.exp(m - mx).sum(axis=0))
    return alpha


def loop_backward_lattice(emissions, trans, start, end):
    """One sentence's beta (n, L), one position at a time: beta[k, i] = log
    sum of the path-suffix scores from label i at position k through the
    end transition."""
    num_labels, n = emissions.shape
    t = trans[:num_labels, :num_labels]
    beta = np.empty((n, num_labels))
    beta[n - 1] = trans[:num_labels, end]
    for k in range(n - 2, -1, -1):
        m = t + (emissions[:, k + 1] + beta[k + 1])[None, :]  # (from, to)
        mx = m.max(axis=1)
        beta[k] = mx + np.log(np.exp(m - mx[:, None]).sum(axis=1))
    return beta


def loop_crf_nll_grads(emissions, trans, start, end, gold):
    """One sentence's (nll, d_emissions (L, n), d_trans, unary (n, L),
    pairwise (n - 1, L, L), log_z) from the loop lattices, with a
    max-subtracted log-sum-exp and the gold path score summed by numpy:
    the reference a packed CRF must match bit for bit, sentence by
    sentence."""
    num_labels, n = emissions.shape
    y = np.asarray(gold)
    t = trans[:num_labels, :num_labels]
    alpha = loop_forward_lattice(emissions, trans, start, end)
    beta = loop_backward_lattice(emissions, trans, start, end)
    last = alpha[-1] + trans[:num_labels, end]
    log_z = float(last.max() + np.log(np.sum(np.exp(last - last.max()))))
    unary = np.exp(alpha + beta - log_z)
    pairwise = np.exp(
        alpha[:-1, :, None] + t + (emissions[:, 1:].T + beta[1:])[:, None, :] - log_z
    )
    score = emissions[y, np.arange(n)].sum() + trans[start, y[0]] + trans[y[-1], end]
    score += trans[y[:-1], y[1:]].sum()
    d_e = unary.T.copy()
    d_e[y, np.arange(n)] -= 1.0
    d_t = np.zeros_like(trans)
    d_t[:num_labels, :num_labels] = pairwise.sum(axis=0)
    np.subtract.at(d_t, (y[:-1], y[1:]), 1.0)
    d_t[start, :num_labels] += unary[0]
    d_t[start, y[0]] -= 1.0
    d_t[:num_labels, end] += unary[-1]
    d_t[y[-1], end] -= 1.0
    return float(log_z - float(score)), d_e, d_t, unary, pairwise, log_z


# ---------------------------------------------------------------------------
# scalar LSTM reference (one step, pure Python floats)

def scalar_lstm_step(w_in, w_rec, b, x, h_prev, c_prev, w_aux=None, q=None):
    """One LSTM step evaluated coordinate by coordinate with math.exp.

    The weights are fused blocks (nested lists or arrays with 4U rows);
    gate k of ("i", "f", "o", "g") reads rows k*U .. (k+1)*U - 1. The
    cue-bit weights w_aux (4U,) meet the scalar aux input q.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def tnh(v):
        return (math.exp(v) - math.exp(-v)) / (math.exp(v) + math.exp(-v))

    units = len(b) // 4
    acts = {}
    for k, gate in enumerate(("i", "f", "o", "g")):
        vals = []
        for u in range(units):
            row = k * units + u
            pre = float(b[row])
            for j, xj in enumerate(x):
                pre += w_in[row][j] * xj
            if w_aux is not None:
                pre += w_aux[row] * q
            for j, hj in enumerate(h_prev):
                pre += w_rec[row][j] * hj
            vals.append(tnh(pre) if gate == "g" else sig(pre))
        acts[gate] = vals
    c = [acts["f"][u] * c_prev[u] + acts["i"][u] * acts["g"][u] for u in range(units)]
    h = [acts["o"][u] * tnh(c[u]) for u in range(units)]
    return h, c


def scalar_lstm_states(params, x, q=None):
    """Hidden states of one sentence (rows of x, in recurrence order, with
    aux inputs q (T,)) from repeated scalar_lstm_step calls."""
    w_in, w_rec, b = params.w_in.tolist(), params.w_rec.tolist(), params.b.tolist()
    w_aux = None if params.w_aux is None else params.w_aux.tolist()
    units = len(b) // 4
    h, c = [0.0] * units, [0.0] * units
    out = []
    for k in range(len(x)):
        h, c = scalar_lstm_step(w_in, w_rec, b, list(x[k]), h, c,
                                w_aux=w_aux, q=None if q is None else float(q[k]))
        out.append(h)
    return np.array(out).reshape(len(x), units)


def concat_lstm_backward(params, cache, d_hidden):
    """The LSTM backward with d(preactivation) built out of place: four
    fresh per-gate products, concatenated into a new (T, 4U) array, each
    with the operation order lstm_backward keeps. It leaves the cache as it
    found it. Returns (LstmParams grads, d_inputs, d_aux) like lstm_backward."""
    dh_out = np.asarray(d_hidden, dtype=np.float64)
    sizes = cache.batch_sizes
    total, units = cache.hidden.shape
    first = sizes[0]
    prev = np.arange(first, total) - np.repeat(sizes[:-1], sizes[1:])
    i, f, o, g = np.split(cache.gates, 4, axis=1)
    tc = np.tanh(cache.cell)
    c_prev = np.concatenate([np.zeros((first, units)), cache.cell[prev]])
    dpre = np.concatenate(
        [g * i * (1 - i), c_prev * f * (1 - f), tc * o * (1 - o), i * (1 - g * g)], axis=1
    ).reshape(total, 4, units)
    dc_dh = o * (1 - tc * tc)
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
            np.multiply(dc, f[step], out=dc_rec[:size])
    flat = dpre.reshape(total, 4 * units)
    grads = LstmParams(
        flat.T @ cache.inputs, flat[first:].T @ cache.hidden[prev], flat.sum(axis=0)
    )
    d_inputs = flat @ params.w_in
    d_aux = None
    if cache.aux is not None:
        grads.w_aux = flat.T @ cache.aux
        d_aux = flat @ params.w_aux
    return grads, d_inputs, d_aux


# ---------------------------------------------------------------------------
# gradient checking

def flip_entry_byte(path, entry: str, offset: int = -1) -> None:
    """Invert one data byte of a zip archive entry, by default its last: in
    an uncompressed entry that fails the entry's CRC check."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(entry)
    data = bytearray(path.read_bytes())
    # the data follows a 30-byte local header, the name and an extra field
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    data[info.header_offset + 30 + name_len + extra_len + offset % info.compress_size] ^= 0xFF
    path.write_bytes(data)


def finite_diff_grad(f, at, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at a point, one coordinate at a time."""
    x = np.array(at, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"objective non-finite near coordinate {i}")
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(1.0, np.abs(a) + np.abs(b))


def densify(grad, shape) -> np.ndarray:
    """A gradient as a dense array of `shape`: an ndarray as it is, and a
    column gradient (`cols`, with `values` row j the gradient of column
    cols[j]) written into zeros, each of its distinct columns once."""
    if isinstance(grad, np.ndarray):
        return grad
    cols = [int(c) for c in grad.cols]
    assert len(set(cols)) == len(cols), f"repeated columns {cols}"
    dense = np.zeros(shape)
    for col, row in zip(cols, grad.values):
        dense[:, col] = row
    return dense


def assert_grad_close(f, value, analytic, tol=1e-4, eps=1e-5):
    """Compare an analytic gradient for one array against central differences."""
    numeric = finite_diff_grad(f, np.asarray(value, dtype=np.float64), eps=eps)
    worst = rel_err(numeric, analytic).max() if numeric.size else 0.0
    assert worst <= tol, f"gradient mismatch: worst rel err {worst:.2e}"


# ---------------------------------------------------------------------------
# gold scope shape

_GOLD_PATTERN = re.compile(r"O*(B*CA*)?O*")


def valid_gold_pattern(scope_tags: list[str]) -> bool:
    """True iff the sequence matches O* B* C A* O* or is all O."""
    if any(t not in SCOPE_TAG_IDS for t in scope_tags):
        return False
    return _GOLD_PATTERN.fullmatch("".join(scope_tags)) is not None


# ---------------------------------------------------------------------------
# column-file reader oracle: one line and one token at a time

def loop_column_blocks(path, widths):
    """Yield (source_id, [(lineno, columns), ...]) per block, checking each
    row as it is read; the rules the package's block reader must match."""
    from negscope.corpus import CorpusError

    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    block: list[tuple[int, list[str]]] = []
    source_id = ""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r ")
        if line.startswith("#") and "\t" not in line:
            if not block and not source_id:
                source_id = line.lstrip("#").strip()
            continue
        if not line.strip():
            if block:
                yield source_id, block
                block, source_id = [], ""
            continue
        cols = line.split("\t")
        if len(cols) not in widths:
            raise CorpusError(f"{path}:{lineno}: expected "
                              f"{' or '.join(map(str, widths))} tab-separated columns")
        if not cols[0] or any(c.isspace() for c in cols[0]):
            raise CorpusError(f"{path}:{lineno}: empty token" if not cols[0] else
                              f"{path}:{lineno}: token {cols[0]!r} holds whitespace")
        for tag, kind, alphabet in zip(cols[1:], ("cue", "scope"), (CUE_TAGS, SCOPE_TAGS)):
            if tag not in alphabet:
                raise CorpusError(f"{path}:{lineno}: " + (
                    f"unknown {kind} tag {tag!r}" if tag else f"empty {kind} tag"))
        block.append((lineno, cols))
    if block:
        yield source_id, block


def loop_decode_block(path, block, source_id):
    """One gold block's instance: the annotation its tags spell, which
    must re-derive those tags exactly."""
    from negscope.corpus import CorpusError, NegationInstance, Sentence

    linenos = [lineno for lineno, _ in block]
    tokens = tuple(cols[0] for _, cols in block)
    ctags = [cols[1] for _, cols in block]
    stags = [cols[2] for _, cols in block]
    cues = tuple(k for k, t in enumerate(ctags) if t in ("C", "MC"))
    inside = [k for k, t in enumerate(stags) if t != "O"]
    span = (inside[0], inside[-1]) if inside else None
    if span is not None and not cues:
        raise CorpusError(f"{path}:{linenos[0]}: scope without any cue token")
    try:
        ann = NegationAnnotation(cues, span)
    except ValueError as exc:
        raise CorpusError(f"{path}:{linenos[0]}: {exc}") from None
    n = len(tokens)
    cue_set = set(ann.cue_indices)
    want_ctags = ["NC"] * n
    for k in cue_set:
        want_ctags[k] = "MC" if k - 1 in cue_set or k + 1 in cue_set else "C"
    want_stags = ["O"] * n
    if ann.scope is not None:
        first_cue = ann.cue_indices[0]
        for k in range(ann.scope[0], ann.scope[1] + 1):
            want_stags[k] = "B" if k < first_cue else ("C" if k == first_cue else "A")
    for k, (want, got) in enumerate(zip(want_ctags, ctags)):
        if want != got:
            raise CorpusError(
                f"{path}:{linenos[k]}: cue tag {got!r} is not canonical "
                f"(expected {want!r}; MC needs a run of at least 2)"
            )
    for k, (want, got) in enumerate(zip(want_stags, stags)):
        if want != got:
            raise CorpusError(
                f"{path}:{linenos[k]}: scope tag {got!r} breaks the "
                f"O* B* C A* O* shape (expected {want!r})"
            )
    return NegationInstance(Sentence(tokens, source_id), ann)


def loop_parse_column_file(path):
    from negscope.corpus import CorpusError

    instances = [loop_decode_block(path, block, source_id)
                 for source_id, block in loop_column_blocks(path, (3,))]
    if not instances:
        raise CorpusError(f"{path}: no instances found")
    return instances


def loop_read_tag_blocks(path):
    from negscope.corpus import CorpusError, TagBlock

    blocks = []
    for source_id, rows in loop_column_blocks(path, (2, 3)):
        widths = {len(cols) for _, cols in rows}
        if len(widths) > 1:
            raise CorpusError(f"{path}:{rows[0][0]}: ragged block, need 2 or 3 columns")
        blocks.append(TagBlock(
            source_id,
            tuple(cols[0] for _, cols in rows),
            tuple(cols[1] for _, cols in rows),
            tuple(cols[2] for _, cols in rows) if widths == {3} else None,
        ))
    if not blocks:
        raise CorpusError(f"{path}: no instances found")
    return blocks


# ---------------------------------------------------------------------------
# scoring oracles: each metric in its own walk over the rows, which the
# column sums of evaluation.sentence_counts must reproduce

def is_continuous(scope_tags) -> bool:
    """True when every position between the scope bounds is in scope.
    An all-O sequence counts as continuous."""
    inside = [k for k, t in enumerate(scope_tags) if t != "O"]
    return not inside or inside[-1] - inside[0] + 1 == len(inside)


def _percent(hits, total):
    return math.nan if total == 0 else 100.0 * hits / total


def loop_token_confusion(preds, golds, positive):
    """(tp, fp, fn, tn, precision, recall, f1) over tags in `positive`,
    one token at a time; F1 is NaN when precision or recall is."""
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions vs {len(golds)} gold sequences")
    tp = fp = fn = tn = 0
    for i, (pred, gold) in enumerate(zip(preds, golds)):
        if len(pred) != len(gold):
            raise ValueError(f"instance {i}: {len(pred)} predicted tags vs {len(gold)} gold")
        for pred_tag, gold_tag in zip(pred, gold):
            p, g = pred_tag in positive, gold_tag in positive
            if p and g:
                tp += 1
            elif p:
                fp += 1
            elif g:
                fn += 1
            else:
                tn += 1
    precision, recall = _percent(tp, tp + fp), _percent(tp, tp + fn)
    if math.isnan(precision) or math.isnan(recall):
        f1 = math.nan
    elif precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return tp, fp, fn, tn, precision, recall, f1


def loop_pecm(preds, golds):
    """Percentage of sentences with a gold cue whose whole cue row matches."""
    hits = total = 0
    for pred, gold in zip(preds, golds):
        if all(t == "NC" for t in gold):
            continue
        total += 1
        hits += list(pred) == list(gold)
    return _percent(hits, total)


def loop_pcs(preds, golds):
    """Percentage of gold scopes predicted exactly as an in/out token set."""
    hits = total = 0
    for pred, gold in zip(preds, golds):
        gold_set = {k for k, t in enumerate(gold) if t != "O"}
        if not gold_set:
            continue
        total += 1
        hits += {k for k, t in enumerate(pred) if t != "O"} == gold_set
    return _percent(hits, total)


def loop_pcp(preds):
    """Percentage of continuous predictions among those with an in-scope
    token."""
    hits = total = 0
    for pred in preds:
        if all(t == "O" for t in pred):
            continue
        total += 1
        hits += is_continuous(pred)
    return _percent(hits, total)


# ---------------------------------------------------------------------------
# synthetic corpora

_NOUNS = ["cells", "mice", "protein", "il-2", "genes", "t-cells", "samples",
          "levels", "expression", "activity"]
_VERBS = ["showed", "contained", "expressed", "affected", "induced"]
_DETS = ["the", "these", "both"]


def synthetic_instances(count: int, seed: int = 0):
    """Deterministic toy corpus mixing assertions with four negation shapes.

    Labels are a pure function of the pattern, so a model can fit them
    exactly. Token inventory stays under 40 distinct types.
    """
    from negscope.corpus import NegationInstance, Sentence

    rng = np.random.default_rng(seed)
    out = []
    for idx in range(count):
        det = _DETS[rng.integers(len(_DETS))]
        n1 = _NOUNS[rng.integers(len(_NOUNS))]
        n2 = _NOUNS[rng.integers(len(_NOUNS))]
        verb = _VERBS[rng.integers(len(_VERBS))]
        kind = idx % 4
        if kind == 0:
            tokens = [det, n1, verb, n2, "."]
            ann = NegationAnnotation()
        elif kind == 1:
            # single-token cue, scope to the end of the clause
            tokens = [det, n1, verb, "no", n2, "."]
            ann = NegationAnnotation((3,), (3, 4))
        elif kind == 2:
            # continuous multiword cue
            tokens = [n1, "could", "not", "at", "all", "affect", n2, "."]
            ann = NegationAnnotation((2, 3, 4), (0, 6))
        else:
            # discontinuous cue pair
            tokens = ["neither", n1, "nor", n2, verb, "it", "."]
            ann = NegationAnnotation((0, 2), (0, 5))
        out.append(NegationInstance(Sentence(tuple(tokens), f"synth.{idx}"), ann))
    return out


# ---------------------------------------------------------------------------
# hypothesis strategies for column files

def _no_space(text: str) -> bool:
    return not any(c.isspace() for c in text)


# any whitespace-free text; a leading '#' must not turn a row into an id
_WORDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                 max_size=5).filter(_no_space)
_TOKENS = st.one_of(_WORDS, _WORDS.map(lambda t: "#" + t), st.just("#"))
# any text, '#'-prefixed included; Sentence must reject the ids a column
# file cannot carry, which CARRIED_IDS leaves out
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_SOURCE_IDS = st.one_of(_TEXT, _TEXT.map(lambda t: "#" + t))
CARRIED_IDS = _SOURCE_IDS.filter(
    lambda t: t == t.strip() and not any(c in t for c in "\t\n\r")
)


@st.composite
def gold_instances(draw):
    """A NegationInstance with arbitrary tokens and a well-formed
    annotation: an assertion, a cue without scope, or a cue inside its
    scope."""
    from negscope.corpus import NegationInstance, Sentence

    tokens = tuple(draw(st.lists(_TOKENS, min_size=1, max_size=8)))
    n = len(tokens)
    shape = draw(st.sampled_from(("assertion", "cue", "scope")))
    ann = NegationAnnotation()
    if shape != "assertion":
        left = draw(st.integers(0, n - 1))
        right = draw(st.integers(left, n - 1))
        cues = draw(st.lists(st.integers(left, right), min_size=1, unique=True))
        ann = NegationAnnotation(tuple(cues), (left, right) if shape == "scope" else None)
    return NegationInstance(Sentence(tokens, draw(CARRIED_IDS)), ann)


@st.composite
def tag_rows(draw, with_scope: bool, tokens=None):
    """(source_id, tokens, cue_tags, scope_tags or None) with arbitrary,
    possibly ill-formed tags, as prediction files may hold; `tokens`
    fixes the sentence."""
    if tokens is None:
        tokens = tuple(draw(st.lists(_TOKENS, min_size=1, max_size=8)))
    n = len(tokens)
    ctags = tuple(draw(st.lists(st.sampled_from(CUE_TAGS), min_size=n, max_size=n)))
    stags = None
    if with_scope:
        stags = tuple(draw(st.lists(st.sampled_from(SCOPE_TAGS), min_size=n, max_size=n)))
    return draw(CARRIED_IDS), tokens, ctags, stags
