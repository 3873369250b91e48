"""Column-format IO, tokenizer, vocabulary, embeddings, encoding, splits."""
from __future__ import annotations

import re
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _SOURCE_IDS,
    gold_instances,
    loop_parse_column_file,
    loop_read_tag_blocks,
    synthetic_instances,
    tag_rows,
)
from negscope.corpus import (
    OOV_INDEX,
    CorpusError,
    NegationInstance,
    Sentence,
    TagBlock,
    Vocabulary,
    build_vocab,
    clip_annotation,
    corpus_stats,
    encode_instances,
    format_column_blocks,
    load_embedding_file,
    parse_column_file,
    read_tag_blocks,
    split_dataset,
    tokenize,
    write_column_file,
)
from negscope.labeling import NegationAnnotation

REFERENCE_BLOCK = """\
# abstract.s1
It\tNC\tO
had\tNC\tO
no\tC\tC
effect\tNC\tA
on\tNC\tA
IL-10\tNC\tA
secretion\tNC\tA
.\tNC\tO
"""


class TestTokenize:
    def test_reference_sentence(self):
        assert tokenize("It had no effect on IL-10 secretion.") == [
            "It", "had", "no", "effect", "on", "IL-10", "secretion", ".",
        ]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("   \t \n") == []

    def test_pretokenized_punctuation_is_kept(self):
        assert tokenize("E2F-1/DP1 .") == ["E2F-1/DP1", "."]

    def test_internal_brackets_survive(self):
        assert tokenize("CD4(+)") == ["CD4(+)"]
        assert tokenize("CD4(+).") == ["CD4(+)", "."]
        assert tokenize("CD4(+) cells") == ["CD4(+)", "cells"]

    def test_plain_parentheses_split(self):
        assert tokenize("(p<0.05),") == ["(", "p<0.05", ")", ","]

    def test_quotes_split(self):
        assert tokenize('"negative"') == ['"', "negative", '"']

    def test_punctuation_run(self):
        assert tokenize("...") == [".", ".", "."]

    def test_internal_hyphens_and_digits(self):
        assert tokenize("IL-2, IL-10; p53.") == [
            "IL-2", ",", "IL-10", ";", "p53", ".",
        ]

    @given(st.text(st.sampled_from(" \t\n.,;:!?()[]{}\"'#-+<>aZ0")))
    @settings(max_examples=300)
    def test_never_yields_an_empty_or_spaced_token(self, text):
        tokens = tokenize(text)
        assert all(t and not any(c.isspace() for c in t) for t in tokens)
        assert "".join(tokens) == "".join(text.split())


class TestParse:
    def test_reference_block(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(REFERENCE_BLOCK)
        (inst,) = parse_column_file(path)
        assert inst.sentence.tokens == (
            "It", "had", "no", "effect", "on", "IL-10", "secretion", ".",
        )
        assert inst.sentence.source_id == "abstract.s1"
        assert inst.annotation.cue_indices == (2,)
        assert inst.annotation.scope == (2, 6)

    def test_assertion_block(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tNC\tO\nb\tNC\tO\n")
        (inst,) = parse_column_file(path)
        assert not inst.is_negation

    def test_multiple_blocks(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(REFERENCE_BLOCK + "\n" + "fine\tNC\tO\n.\tNC\tO\n")
        assert len(parse_column_file(path)) == 2

    def test_mc_run_of_one_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tNC\tO\nnot\tMC\tC\nb\tNC\tA\n")
        with pytest.raises(CorpusError, match=r"corpus\.tsv:2.*MC"):
            parse_column_file(path)

    def test_unknown_tag_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tXX\tO\n")
        with pytest.raises(CorpusError, match=r":1: unknown cue tag"):
            parse_column_file(path)

    def test_scope_without_cue_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tNC\tO\nb\tNC\tC\nc\tNC\tA\n")
        with pytest.raises(CorpusError, match="scope without any cue"):
            parse_column_file(path)

    def test_cue_outside_scope_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("no\tC\tO\nb\tNC\tC\nc\tNC\tA\n")
        with pytest.raises(CorpusError):
            parse_column_file(path)

    def test_non_canonical_scope_is_an_error(self, tmp_path):
        # scope column says the cue position is A, not C
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tNC\tB\nno\tC\tA\nc\tNC\tA\n")
        with pytest.raises(CorpusError, match="scope tag"):
            parse_column_file(path)

    def test_wrong_column_count_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tNC\n")
        with pytest.raises(CorpusError, match=":1: expected 3"):
            parse_column_file(path)

    def test_whitespace_token_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tNC\tO\nb c\tNC\tO\n")
        with pytest.raises(CorpusError, match=r":2: token 'b c' holds whitespace"):
            parse_column_file(path)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n\n")
        with pytest.raises(CorpusError, match="no instances"):
            parse_column_file(path)

    def test_round_trip_is_byte_identical(self, tmp_path):
        instances = synthetic_instances(24, seed=3)
        path = tmp_path / "corpus.tsv"
        write_column_file(path, instances)
        first = path.read_bytes()
        parsed = parse_column_file(path)
        assert parsed == instances
        write_column_file(path, parsed)
        assert path.read_bytes() == first

    def test_read_tag_blocks_accepts_predictions(self, tmp_path):
        # discontinuous scope: invalid as gold, fine as a prediction
        path = tmp_path / "pred.tsv"
        path.write_text("a\tC\tC\nb\tNC\tO\nc\tNC\tA\n")
        (block,) = read_tag_blocks(path)
        assert block.scope_tags == ("C", "O", "A")
        with pytest.raises(CorpusError):
            parse_column_file(path)

    def test_read_tag_blocks_cue_only(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("a\tC\nb\tNC\n")
        (block,) = read_tag_blocks(path)
        assert block.scope_tags is None
        assert block.cue_tags == ("C", "NC")

    def test_read_tag_blocks_errors_name_the_line(self, tmp_path):
        path = tmp_path / "pred.tsv"
        cases = [
            ("a\tC\n\nb\tNC\tO\nc\tNC\n", r":3: ragged block, need 2 or 3 columns"),
            ("a\tC\tO\nb\tX\tO\n", r":2: unknown cue tag 'X'"),
            ("# s\na\tC\tZ\n", r":2: unknown scope tag 'Z'"),
            ("a\tC\tO\n\tNC\tO\n", r":2: empty token"),
            ("a b\tC\n", r":1: token 'a b' holds whitespace"),
            ("a\tC\tO\tx\n", r":1: expected 2 or 3 tab-separated columns"),
            # a trailing tab is an empty last column, not a shorter row
            ("a\tC\t\nb\tNC\t\n", r":1: empty scope tag"),
            ("a\tC\tC\nb\tNC\t\n", r":2: empty scope tag"),
            ("a\t\n", r":1: empty cue tag"),
            ("# only an id\n\n", r"no instances found"),
        ]
        for text, message in cases:
            path.write_text(text)
            with pytest.raises(CorpusError, match=message):
                read_tag_blocks(path)

    def test_trailing_tab_is_an_empty_scope_tag(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("a\tNC\tO\nb\tNC\t\n")
        with pytest.raises(CorpusError, match=r"corpus\.tsv:2: empty scope tag"):
            parse_column_file(path)

    def test_whitespace_only_line_ends_a_block(self, tmp_path):
        # trailing spaces and CRLF line ends are cut; a line of only
        # spaces and tabs separates blocks
        path = tmp_path / "pred.tsv"
        path.write_text("a\tC \r\n \t \r\nb\tNC\tO\r\n")
        first, second = read_tag_blocks(path)
        assert (first.tokens, first.cue_tags, first.scope_tags) == (("a",), ("C",), None)
        assert (second.tokens, second.cue_tags, second.scope_tags) == (("b",), ("NC",), ("O",))

    def test_trailing_spaces_are_cut_on_the_last_line_too(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("a\tC\n\nb\tNC  ")
        assert [b.cue_tags for b in read_tag_blocks(path)] == [("C",), ("NC",)]

    def test_hash_tokens_are_rows_not_ids(self, tmp_path):
        # a '#' line with a tab is a token row, inside a block or opening one
        path = tmp_path / "corpus.tsv"
        path.write_text("# s1\npatient\tNC\tO\n#3\tNC\tO\nhad\tNC\tO\n\n"
                        "#3\tNC\tO\nhad\tNC\tO\n\n# s3\n# a comment\nno\tC\tC\n")
        sentences = [inst.sentence for inst in parse_column_file(path)]
        assert sentences == [Sentence(("patient", "#3", "had"), "s1"),
                             Sentence(("#3", "had"), ""), Sentence(("no",), "s3")]
        assert [(b.source_id, b.tokens) for b in read_tag_blocks(path)] == \
            [(s.source_id, s.tokens) for s in sentences]


class TestRoundTrip:
    """format -> parse through both readers on arbitrary whitespace-free
    tokens and arbitrary source ids, '#'-prefixed ones included."""

    @given(st.lists(gold_instances(), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_gold_file_round_trips_through_both_readers(self, instances):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.col"
            write_column_file(path, instances)
            assert parse_column_file(path) == instances
            assert read_tag_blocks(path) == [
                TagBlock(i.sentence.source_id, i.sentence.tokens,
                         tuple(i.cue_tags()), tuple(i.scope_tags()))
                for i in instances
            ]

    def test_ids_the_format_cannot_carry_are_rejected(self):
        for bad in ("x\ty", "x\ny", "x\ry", " x", "x\r", "\u2028x", "\x85"):
            with pytest.raises(ValueError, match="source id"):
                Sentence(("no",), bad)
        for good in ("", "#x", "##", "a b", "S1.4"):
            assert Sentence(("no",), good).source_id == good

    @given(_SOURCE_IDS)
    @settings(max_examples=300, deadline=None)
    def test_source_id_is_rejected_or_survives_both_readers(self, source_id):
        try:
            sentence = Sentence(("no", "#3"), source_id)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.col"
            write_column_file(path, [NegationInstance(sentence)])
            assert [inst.sentence.source_id for inst in parse_column_file(path)] == [source_id]
            assert [block.source_id for block in read_tag_blocks(path)] == [source_id]

    @given(st.booleans().flatmap(
        lambda scope: st.lists(tag_rows(scope), min_size=1, max_size=4)
    ))
    @settings(max_examples=150, deadline=None)
    def test_prediction_file_round_trips(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pred.col"
            path.write_text(format_column_blocks(rows), encoding="utf-8")
            assert read_tag_blocks(path) == [TagBlock(*row) for row in rows]


# line edits that break a valid file, or keep it valid in another form;
# each takes (lines, k, draw) and edits the lines in place around line k
def _set_column(col, values):
    def edit(lines, k, draw):
        cols = lines[k].split("\t")
        if len(cols) > col:
            cols[col] = draw(st.sampled_from(values))
            lines[k] = "\t".join(cols)
    return edit


def _drop_tab(lines, k, draw):
    lines[k] = lines[k].replace("\t", "", 1)


def _add_tab(lines, k, draw):
    at = draw(st.integers(0, len(lines[k])))
    lines[k] = lines[k][:at] + "\t" + lines[k][at:]


def _ragged(lines, k, draw):
    lines[k] = lines[k].rpartition("\t")[0] if lines[k].count("\t") > 1 else lines[k]


def _insert(values):
    def edit(lines, k, draw):
        lines.insert(k, draw(st.sampled_from(values)))
    return edit


def _append(values):
    def edit(lines, k, draw):
        lines[k] += draw(st.sampled_from(values))
    return edit


def _blank_to_spaces(lines, k, draw):
    if not lines[k]:
        lines[k] = draw(st.sampled_from((" ", "  \t", "\xa0", "\x1c", "\t")))


_EDITS = (
    _drop_tab, _add_tab, _ragged, _blank_to_spaces,
    _set_column(0, ("", " ", "a b", "\xa0", "a\xa0", "\x1c", "\u3000x", "#x")),
    _set_column(1, ("X", "", "nc", "MC", "NC", "C", "C ")),  # MC alone: a run of one
    _set_column(2, ("Z", "", "O", "B", "C", "A")),  # breaks the shape, or drops the cue
    _insert(("# a comment", "#", "", " ", "\t", "\xa0 ", "x\tNC\tO", "#3\tC\tC")),
    _append(("\r", " ", "  ", " \r", "\t", "\tO")),
)


@st.composite
def column_files(draw):
    """The text of a gold or prediction file, edited at a few random lines."""
    kind = draw(st.sampled_from(("gold", "cue", "scope")))
    if kind == "gold":
        rows = [(i.sentence.source_id, i.sentence.tokens, i.cue_tags(), i.scope_tags())
                for i in draw(st.lists(gold_instances(), min_size=1, max_size=3))]
    else:
        rows = draw(st.lists(tag_rows(kind == "scope"), min_size=1, max_size=3))
    lines = format_column_blocks(rows).split("\n")
    if draw(st.booleans()):
        lines.pop()  # no line break at the end of the file
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        last = len(lines) - 1  # the last line is drawn more often
        edit(lines, draw(st.integers(0, last) | st.just(last)), draw)
    ends = draw(st.sampled_from(("\n", "\r\n")))
    return ends.join(lines)


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the error's type and text must match too
        return type(exc), str(exc)


class TestReaderOracle:
    """Both readers against the line-at-a-time oracles in helpers: equal
    results on valid files, the same error on broken ones."""

    @given(column_files())
    @settings(max_examples=400, deadline=None)
    def test_edited_files_read_as_the_oracle_reads_them(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.col"
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(parse_column_file, path) == _outcome(loop_parse_column_file, path)
            assert _outcome(read_tag_blocks, path) == _outcome(loop_read_tag_blocks, path)

    @pytest.mark.parametrize("rows, read, message", [
        ("a\tNC\tO\nb\tX\tO", parse_column_file, "6: unknown cue tag 'X'"),
        ("a\tNC\tO\nb\tMC\tO", parse_column_file, "6: cue tag 'MC' is not canonical "
         "(expected 'C'; MC needs a run of at least 2)"),
        ("a\tC\tC\nb\tNC\tB", parse_column_file, "6: scope tag 'B' breaks the "
         "O* B* C A* O* shape (expected 'A')"),
        ("a\tNC\nb\tNC\tZ", read_tag_blocks, "6: unknown scope tag 'Z'"),
    ])
    def test_comments_inside_a_block_keep_the_line_numbers(self, tmp_path, rows,
                                                           read, message):
        first, second = rows.split("\n")
        path = tmp_path / "c.col"
        path.write_text(f"# s1\n{first}\n# a note\n#\n# x\n{second}\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=re.escape(f"c.col:{message}") + "$"):
            read(path)
        oracle = loop_parse_column_file if read is parse_column_file else loop_read_tag_blocks
        assert _outcome(read, path) == _outcome(oracle, path)

    def test_a_token_is_refused_exactly_when_it_holds_whitespace(self, tmp_path):
        chars = "".join(map(chr, chain(range(0xD800), range(0xE000, 0x110000))))
        solid = "".join(chars.split())
        # "\n" and "\r" end the line and "\t" the column before any token
        # rule sees them
        spaces = [c for c in chars if c.isspace() and c not in "\n\r\t"]
        tokens = tuple(solid[i:i + 4096] for i in range(0, len(solid), 4096))
        path = tmp_path / "solid.col"
        path.write_text(format_column_blocks([("", tokens, ("NC",) * len(tokens), None)]),
                        encoding="utf-8")
        assert read_tag_blocks(path) == [TagBlock("", tokens, ("NC",) * len(tokens), None)]
        assert Sentence(tokens).tokens == tokens
        for c in [*spaces, "\n", "\r", "\t"]:
            with pytest.raises(ValueError, match="whitespace-free"):
                Sentence(("a", "b" + c))
        for c in spaces:
            path = tmp_path / f"{ord(c):x}.col"
            path.write_text(f"a\tNC\nb{c}\tNC\n", encoding="utf-8")
            message = re.escape(f"{ord(c):x}.col:2: token {'b' + c!r} holds whitespace")
            with pytest.raises(CorpusError, match=f"{message}$"):
                read_tag_blocks(path)


class TestVocabulary:
    def test_reference_sentence_size(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text(REFERENCE_BLOCK)
        vocab = build_vocab(parse_column_file(path))
        assert vocab.size == 9  # 8 distinct tokens plus the unknown slot

    def test_first_occurrence_order_and_case(self):
        insts = [
            NegationInstance(Sentence(("It", "it", "It"), "a")),
            NegationInstance(Sentence(("new",), "b")),
        ]
        vocab = build_vocab(insts)
        assert vocab.tokens_in_order() == ["It", "it", "new"]
        assert vocab.lookup_all(["It"])[0] == 1
        assert vocab.lookup_all(["unseen"])[0] == OOV_INDEX == 0

    def test_duplicate_instances_do_not_grow_vocab(self):
        insts = [NegationInstance(Sentence(("a", "b"), "x"))] * 3
        assert build_vocab(insts).size == 3

    @pytest.mark.parametrize("text, problem", [
        ('{"oov_index": 0, "tokens": null}', "'tokens' is not a list of strings"),
        ('{"oov_index": 0, "tokens": "abc"}', "'tokens' is not a list of strings"),
        ('{"oov_index": 0, "tokens": ["a", 1]}', "'tokens' is not a list of strings"),
        ('{"oov_index": 0, "tokens": ["a"]', "not a JSON vocabulary"),
        ("", "not a JSON vocabulary"),
    ], ids=["null", "string", "non_string_token", "cut_json", "empty"])
    def test_a_malformed_file_is_a_corpus_error_naming_it(self, tmp_path, text, problem):
        path = tmp_path / "vocab.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: {re.escape(problem)}"):
            Vocabulary.load(path)

    def test_save_load_preserves_hash(self, tmp_path):
        vocab = build_vocab(synthetic_instances(10, seed=1))
        path = tmp_path / "vocab.json"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.index == vocab.index
        assert again.content_hash() == vocab.content_hash()


class TestEmbeddingFile:
    def _vocab(self):
        return Vocabulary({"no": 1, "effect": 2, "cells": 3})

    def test_loads_columns(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(
            "3 2\nno 1.0 2.0\neffect 3.0 4.0\nother 9.0 9.0\n"
        )
        matrix, coverage = load_embedding_file(path, self._vocab())
        assert matrix.shape == (2, 4)
        np.testing.assert_array_equal(matrix[:, 1], [1.0, 2.0])
        np.testing.assert_array_equal(matrix[:, 2], [3.0, 4.0])
        np.testing.assert_array_equal(matrix[:, 0], 0.0)  # unknown slot
        np.testing.assert_array_equal(matrix[:, 3], 0.0)  # not in the file
        assert coverage.missing == ["cells"]
        assert coverage.type_oov_rate == pytest.approx(1 / 3)

    def test_dim_mismatch_is_an_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nno 1.0 2.0\n")
        with pytest.raises(CorpusError, match="dim 2 != configured dim 5"):
            load_embedding_file(path, self._vocab(), expected_dim=5)

    def test_bad_header_is_an_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("vectors\nno 1.0\n")
        with pytest.raises(CorpusError, match=":1"):
            load_embedding_file(path, self._vocab())

    def test_ragged_row_is_an_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nno 1.0 2.0\n")
        with pytest.raises(CorpusError, match=":2"):
            load_embedding_file(path, self._vocab())

    def test_trailing_space_is_not_a_value_and_tabs_do_not_separate(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nno 1.0 2.0 \n")
        with pytest.raises(CorpusError, match=":2: expected a token and 3 values, got 3"):
            load_embedding_file(path, self._vocab())
        path.write_text("1 2\nno\t1.0\t2.0\n")
        with pytest.raises(CorpusError, match=":2: expected a token and 2 values, got 1"):
            load_embedding_file(path, self._vocab())

    def test_word2vec_trailing_spaces_load_like_the_plain_file(self, tmp_path):
        plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
        plain.write_text("2 3\nno 0.1 0.2 0.3\neffect 1 2 3\n")
        padded.write_text("2 3\nno 0.1 0.2 0.3 \r\neffect 1 2 3 \n")
        expected, _ = load_embedding_file(plain, self._vocab())
        matrix, coverage = load_embedding_file(padded, self._vocab())
        np.testing.assert_array_equal(matrix, expected)
        assert coverage.missing == ["cells"]

    def test_non_finite_value_is_an_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        for bad in ("nan", "inf", "-inf"):
            path.write_text(f"2 2\nno 1.0 2.0\neffect 3.0 {bad}\n")
            with pytest.raises(CorpusError, match=":3: non-finite value"):
                load_embedding_file(path, self._vocab())

    def test_second_vector_for_a_token_is_an_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nno 0.1 0.2\nother 9.0 9.0\nno 0.5 0.6\n")
        with pytest.raises(CorpusError, match=":4: second vector for 'no'"):
            load_embedding_file(path, self._vocab())
        # rows for tokens outside the vocabulary are not read
        path.write_text("3 2\nno 0.1 0.2\nother 9.0 9.0\nother nan 9.0\n")
        matrix, _ = load_embedding_file(path, self._vocab())
        np.testing.assert_array_equal(matrix[:, 1], [0.1, 0.2])


    def test_a_byte_that_is_not_utf8_is_an_error_naming_the_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"2 2\nno 1.0 2.0\ncells\xff 3.0 4.0\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            load_embedding_file(path, self._vocab())


class TestPadTruncate:
    """Cutting to max_len: the annotation is clipped with the tokens."""

    def test_clip_annotation_trims_scope(self):
        ann = NegationAnnotation((96,), (95, 102))
        clipped = clip_annotation(ann, 100)
        assert clipped.scope == (95, 99)
        assert clipped.cue_indices == (96,)

    def test_clip_annotation_drops_cueless_leftover(self):
        ann = NegationAnnotation((101,), (95, 102))
        assert clip_annotation(ann, 100) == NegationAnnotation()

    def test_clip_annotation_noop_inside_limit(self):
        ann = NegationAnnotation((2,), (1, 4))
        assert clip_annotation(ann, 100) == ann


class TestEncode:
    def test_arrays_are_unpadded(self):
        inst = NegationInstance(
            Sentence(("a", "b", "no", "c"), "s"), NegationAnnotation((2,), (2, 3))
        )
        vocab = build_vocab([inst])
        enc = encode_instances([inst], vocab, max_len=6)[0]
        assert enc.tokens == ("a", "b", "no", "c")
        assert enc.token_ids.tolist() == [1, 2, 3, 4]
        assert enc.cue_label_ids.tolist() == [0, 0, 1, 0]
        assert enc.cue_bits.tolist() == [0, 0, 1, 0]
        assert enc.cue_tags == ("NC", "NC", "C", "NC")
        assert enc.scope_tags == ("O", "O", "C", "A")
        assert enc.scope_label_ids.tolist() == [0, 0, 2, 3]
        assert encode_instances([inst], vocab)[0].token_ids.tolist() == [1, 2, 3, 4]

    def test_max_len_below_one_is_an_error(self):
        inst = NegationInstance(Sentence(("a", "b"), "s"))
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            encode_instances([inst], build_vocab([inst]), max_len=0)[0]

    def test_truncation_clips_gold(self):
        tokens = tuple(f"t{i}" for i in range(8))
        inst = NegationInstance(
            Sentence(tokens, "s"), NegationAnnotation((3,), (3, 7))
        )
        vocab = build_vocab([inst])
        enc = encode_instances([inst], vocab, max_len=6)[0]
        assert enc.tokens == tokens[:6] and len(enc.token_ids) == 6
        assert enc.annotation.scope == (3, 5)
        assert enc.scope_tags == ("O", "O", "O", "C", "A", "A")


class TestSplit:
    def test_sizes_100(self):
        split = split_dataset(list(range(100)), seed=4)
        assert (len(split.train), len(split.validation), len(split.test)) == (70, 15, 15)

    def test_sizes_101_largest_remainder(self):
        split = split_dataset(list(range(101)), seed=4)
        assert (len(split.train), len(split.validation), len(split.test)) == (71, 15, 15)

    def test_deterministic_given_seed(self):
        items = list(range(50))
        a = split_dataset(items, seed=9)
        b = split_dataset(items, seed=9)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test
        c = split_dataset(items, seed=10)
        assert c.train != a.train

    def test_partition_property(self):
        items = list(range(37))
        for seed in range(100):
            split = split_dataset(items, seed=seed)
            merged = sorted(split.train + split.validation + split.test)
            assert merged == items

    def test_too_few_instances_is_an_error(self):
        for items in ([1, 2], [1, 2, 3], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match="at least 5"):
                split_dataset(items, seed=0)


class TestStats:
    def test_negation_fraction_and_counts(self):
        instances = synthetic_instances(8, seed=0)  # kinds cycle, 2 assertions
        stats = corpus_stats(instances)
        assert stats["instances"] == 8
        assert stats["negation_instances"] == 6
        assert stats["negation_fraction"] == pytest.approx(0.75)
        tokens = [t for i in instances for t in i.sentence.tokens]
        assert stats["tokens"] == len(tokens)
        assert stats["distinct_tokens"] == len(set(tokens))
