#!/usr/bin/env python3
"""Convert a BioScope XML file to the column corpus format negscope reads.

BioScope marks cues and scopes as inline XML over sentence text::

    <sentence id="S7.4">We found <xcope id="X7.4.1"><cue type="negation"
    ref="X7.4.1">no</cue> evidence of infection</xcope>.</sentence>

Every negation cue becomes one annotated instance: the cue's token
positions plus the token span of the <xcope> element its ``ref`` points
at. Discontinuous cues (several <cue> elements sharing one ``ref``) are
merged into one cue set. Sentences without a negation cue are written as
assertions. Speculation markup is ignored.

Usage::

    python3 scripts/bioscope_to_columns.py abstracts.xml abstracts.col

BioScope is distributed under its own license and is not part of this
repository; tests/test_bioscope.py converts a snippet written inside the
test. Inspect a sample of the output before training on it.
Annotations the package's stricter data model rejects (for example a
scope that does not contain its cue) are reported and skipped, keeping
the sentence as an assertion rather than dropping it.
"""
from __future__ import annotations

import argparse
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent.parent / "src"))

from negscope.corpus import (
    NegationInstance,
    Sentence,
    corpus_stat_lines,
    tokenize,
    write_column_file,
)
from negscope.labeling import NegationAnnotation


def flatten_sentence(elem):
    """Token list of a <sentence> plus the token span of every child element.

    Returns (tokens, spans) where spans maps an element to a half-open
    token-index range [start, stop); nesting is preserved because a parent's
    span simply covers its children's.
    """
    tokens: list[str] = []
    spans: dict = {}

    def add_text(text):
        if text:
            tokens.extend(tokenize(text))

    def walk(node):
        start = len(tokens)
        add_text(node.text)
        for child in node:
            walk(child)
            add_text(child.tail)
        spans[node] = (start, len(tokens))

    add_text(elem.text)
    for child in elem:
        walk(child)
        add_text(child.tail)
    return tokens, spans


def sentence_instances(elem, warn) -> list[NegationInstance]:
    """All instances for one <sentence>: one per negation cue, or a single
    assertion when it has none (or none that survive validation)."""
    sid = elem.get("id", "")
    tokens, spans = flatten_sentence(elem)
    if not tokens:
        warn(f"{sid}: no tokens, skipped")
        return []
    sentence = Sentence(tuple(tokens), sid)

    scope_by_id = {}
    cue_tokens_by_ref: dict[str, set[int]] = defaultdict(set)
    for node, (start, stop) in spans.items():
        tag = node.tag.rsplit("}", 1)[-1]
        if tag == "xcope":
            scope_by_id[node.get("id")] = (start, stop)
        elif tag == "cue" and node.get("type") == "negation":
            cue_tokens_by_ref[node.get("ref")].update(range(start, stop))

    instances = []
    for ref, cue_indices in sorted(cue_tokens_by_ref.items()):
        if not cue_indices:
            warn(f"{sid}: negation cue {ref!r} covers no tokens, skipped")
            continue
        span = scope_by_id.get(ref)
        if span is None or span[0] >= span[1]:
            warn(f"{sid}: no scope element for cue {ref!r}, skipped")
            continue
        try:
            # instances of one sentence share its id; sentence counting
            # and the negation-rate statistic depend on that
            instances.append(NegationInstance(
                sentence,
                NegationAnnotation(tuple(sorted(cue_indices)), (span[0], span[1] - 1)),
            ))
        except ValueError as exc:
            warn(f"{sid}: cue {ref!r} rejected ({exc}), skipped")
    if not instances:
        instances.append(NegationInstance(sentence))
    return instances


def convert(xml_path, out_path, warn) -> list[NegationInstance]:
    root = ET.parse(xml_path).getroot()
    instances = []
    for elem in root.iter():
        if elem.tag.rsplit("}", 1)[-1] == "sentence":
            instances.extend(sentence_instances(elem, warn))
    if not instances:
        raise SystemExit(f"error: no <sentence> elements found in {xml_path}")
    write_column_file(out_path, instances)
    return instances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("xml", help="BioScope XML file")
    parser.add_argument("out", help="column corpus file to write")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-sentence warnings")
    args = parser.parse_args(argv)

    warnings = []

    def warn(msg):
        warnings.append(msg)
        if not args.quiet:
            print(f"warning: {msg}", file=sys.stderr)

    instances = convert(args.xml, args.out, warn)
    print("\n".join(corpus_stat_lines(instances)))
    if warnings:
        print(f"{len(warnings)} annotation(s) skipped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
