"""scripts/bioscope_to_columns.py on a BioScope snippet written here: one
instance per negation cue, merged discontinuous cues, speculation ignored,
and annotations the data model rejects reported and kept as assertions."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from negscope.corpus import corpus_stat_lines, parse_column_file

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bioscope_to_columns.py"

_XML = """<?xml version="1.0" encoding="UTF-8"?>
<Annotation><DocumentSet><Document><DocumentPart type="AbstractText">
<sentence id="S1.1">We found <xcope id="X1.1.1"><cue type="negation" ref="X1.1.1">no</cue>
 evidence that the cells <xcope id="X1.1.2"><cue type="negation" ref="X1.1.2">lack</cue>
 the receptor</xcope></xcope>.</sentence>
<sentence id="S1.2"><xcope id="X1.2.1"><cue type="negation" ref="X1.2.1">Neither</cue>
 IL-2 <cue type="negation" ref="X1.2.1">nor</cue> IL-4 was detected</xcope>.</sentence>
<sentence id="S1.3">These results <xcope id="X1.3.1"><cue type="speculation"
 ref="X1.3.1">suggest</cue> that the protein is active</xcope>.</sentence>
<sentence id="S1.4"><cue type="negation" ref="X1.4.1">Not</cue> so: <xcope id="X1.4.1">the
 genes were expressed</xcope>.</sentence>
</DocumentPart></Document></DocumentSet></Annotation>
"""


def _converter():
    spec = importlib.util.spec_from_file_location("bioscope_to_columns", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snippet_converts_to_a_parseable_corpus(tmp_path, capsys):
    xml, out = tmp_path / "abstracts.xml", tmp_path / "abstracts.col"
    xml.write_text(_XML, encoding="utf-8")

    assert _converter().main([str(xml), str(out)]) == 0

    instances = parse_column_file(out)
    got = [(inst.sentence.source_id, inst.sentence.tokens,
            inst.annotation.cue_indices, inst.annotation.scope) for inst in instances]
    nested = ("We", "found", "no", "evidence", "that", "the", "cells", "lack", "the",
              "receptor", ".")
    assert got == [
        # the outer scope covers the nested one, and each cue gets its own
        ("S1.1", nested, (2,), (2, 9)),
        ("S1.1", nested, (7,), (7, 9)),
        # two <cue> elements with one ref make one discontinuous cue
        ("S1.2", ("Neither", "IL-2", "nor", "IL-4", "was", "detected", "."), (0, 2), (0, 5)),
        # speculation markup is not a negation
        ("S1.3", ("These", "results", "suggest", "that", "the", "protein", "is", "active",
                  "."), (), None),
        # a scope that does not contain its cue is skipped, the sentence kept
        ("S1.4", ("Not", "so", ":", "the", "genes", "were", "expressed", "."), (), None),
    ]

    captured = capsys.readouterr()
    assert captured.out.splitlines() == corpus_stat_lines(instances)
    assert "corpus.negation_fraction=0.6000" in captured.out.splitlines()
    assert "warning: S1.4: cue 'X1.4.1' rejected" in captured.err
    assert "1 annotation(s) skipped" in captured.err
