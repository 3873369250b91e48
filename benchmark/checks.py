"""Output checks. A unit is one predicted or scored sentence of one output
file; it fails when its block is missing, duplicated, out of order, has
other tokens than the input sentence, or carries a tag outside the task
alphabet, and every unit of a file fails when the file is absent or its
scores disagree with the benchmark's own count. The reference maps each
input sentence id to (tokens, cue tags, scope tags).
"""
from __future__ import annotations

from dataclasses import dataclass, field

CUE_TAGS = frozenset(("NC", "C", "MC"))
SCOPE_TAGS = frozenset(("O", "B", "C", "A"))
CUE_POSITIVE = frozenset(("C", "MC"))
SCOPE_POSITIVE = frozenset(("B", "C", "A"))


@dataclass
class Block:
    source_id: str
    tokens: tuple
    cue_tags: tuple
    scope_tags: tuple | None


@dataclass
class FileCheck:
    """Checks on one output file; its units are the sentences it must hold."""

    name: str
    ids: list
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def fail(self, source_id: str, problem: str) -> None:
        self.failed.add(source_id)
        if len(self.problems) < 5:
            self.problems.append(f"{self.name}: {problem}")

    def fail_all(self, problem: str) -> None:
        self.failed.update(self.ids)
        self.problems.append(f"{self.name}: {problem}")


def read_blocks(path) -> list[Block]:
    """Blank-line separated blocks of tab-separated rows, '# id' headers.
    Rows keep whatever columns they have, so malformed output is seen by
    the checks rather than rejected here."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    blocks = []
    for chunk in text.split("\n\n"):
        lines = [l for l in chunk.split("\n") if l]
        if not lines:
            continue
        source_id = ""
        if lines[0].startswith("#"):
            source_id = lines[0][1:].strip()
            lines = lines[1:]
        rows = [l.split("\t") for l in lines]
        tokens = tuple(r[0] for r in rows)
        cues = tuple(r[1] if len(r) > 1 else "" for r in rows)
        scopes = tuple(r[2] if len(r) > 2 else "" for r in rows)
        has_scope = any(len(r) > 2 for r in rows)
        blocks.append(Block(source_id, tokens, cues, scopes if has_scope else None))
    return blocks


def check_blocks(check: FileCheck, blocks: list[Block], reference: dict,
                 scope: bool) -> dict[str, Block]:
    """The file must hold exactly check.ids, in that order, each with the
    input's tokens and tags from the task alphabets. Returns blocks by id."""
    by_id: dict[str, Block] = {}
    for block in blocks:
        if block.source_id in by_id:
            check.fail_all(f"duplicate block {block.source_id}")
        by_id.setdefault(block.source_id, block)
    wanted = set(check.ids)
    if any(b.source_id not in wanted for b in blocks):
        check.fail_all("blocks that are not in the input")
    if [b.source_id for b in blocks if b.source_id in wanted] != [
            sid for sid in check.ids if sid in by_id]:
        check.fail_all("blocks out of input order")
    for sid in check.ids:
        block = by_id.get(sid)
        if block is None:
            check.fail(sid, f"sentence {sid} missing")
        elif tuple(block.tokens) != reference[sid][0]:
            check.fail(sid, f"sentence {sid} tokens differ from the input")
        elif not set(block.cue_tags) <= CUE_TAGS:
            check.fail(sid, f"sentence {sid} has a cue tag outside {sorted(CUE_TAGS)}")
        elif scope and (block.scope_tags is None or not set(block.scope_tags) <= SCOPE_TAGS):
            check.fail(sid, f"sentence {sid} lacks a valid scope column")
    return by_id


def check_gold(check: FileCheck, blocks: list[Block], reference: dict) -> None:
    """A gold file the program wrote must repeat the input's tags."""
    for block in blocks:
        ref = reference.get(block.source_id)
        got = (tuple(block.tokens), tuple(block.cue_tags))
        if block.scope_tags is not None:
            got += (tuple(block.scope_tags),)
        if ref is None or got != ref[:len(got)]:
            check.fail(block.source_id, f"gold block {block.source_id} differs from the input")


def check_smoothed(check: FileCheck, blocks: list[Block]) -> None:
    """Postprocessed scopes: all O without a predicted cue, otherwise one
    contiguous in-scope block with its single C on the first cue."""
    for block in blocks:
        cues = [k for k, t in enumerate(block.cue_tags) if t in CUE_POSITIVE]
        tags = block.scope_tags or ()
        inside = [k for k, t in enumerate(tags) if t != "O"]
        if not cues:
            good = not inside
        else:
            good = (bool(inside) and inside == list(range(inside[0], inside[-1] + 1))
                    and [k for k, t in enumerate(tags) if t == "C"] == [cues[0]])
        if not good:
            check.fail(block.source_id, f"sentence {block.source_id} scope is not one smoothed block")


def token_counts(preds, golds, positive) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for pred, gold in zip(preds, golds):
        for p, g in zip(pred, gold):
            p, g = p in positive, g in positive
            tp += p and g
            fp += p and not g
            fn += g and not p
    return tp, fp, fn


def f1(tp: int, fp: int, fn: int) -> float:
    """Token F1 in percent; NaN when nothing is predicted or nothing is gold."""
    if tp + fp == 0 or tp + fn == 0:
        return float("nan")
    return 200.0 * tp / (2 * tp + fp + fn)


def parse_report(text: str) -> dict[str, str]:
    """key=value fields of a report or run log, several to a line allowed."""
    out = {}
    for item in text.split():
        key, sep, value = item.partition("=")
        if sep:
            out[key] = value
    return out


def check_report(check: FileCheck, report_text: str, preds, golds, prefix: str,
                 positive) -> float:
    """The counts in a `negscope evaluate` report must equal the benchmark's
    own; returns the exact F1."""
    counts = token_counts(preds, golds, positive)
    report = parse_report(report_text)
    shown = tuple(report.get(f"{prefix}.{k}") for k in ("tp", "fp", "fn"))
    if shown != tuple(str(c) for c in counts):
        check.fail_all(f"evaluate reports {prefix} tp/fp/fn {shown}, the benchmark counts {counts}")
    return f1(*counts)


def last_loss(run_log: str, task: str) -> float:
    """Last-epoch training loss of a task from a run.log."""
    loss = float("nan")
    for line in run_log.splitlines():
        if line.startswith(f"{task} epoch="):
            for field_ in line.split():
                if field_.startswith("loss="):
                    loss = float(field_[5:])
    return loss
