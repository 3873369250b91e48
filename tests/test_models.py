"""Variant assembly, prediction plumbing, and checkpoint round trips."""
from __future__ import annotations

import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import negscope.layers as layers
import negscope.models as models
from helpers import flip_entry_byte
from negscope.models import (
    META_KEYS,
    VARIANTS,
    Tagger,
    TaggerConfig,
    load_checkpoint,
    parameter_shapes,
    read_checkpoint_meta,
    save_checkpoint,
    smooth_predictions,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def build(config, seed=3, matrix=None):
    return Tagger.build(config, np.random.default_rng(seed), matrix)


class TestAssembly:
    def test_baseline_has_no_lstm_or_crf(self):
        tagger = build(TaggerConfig("cue", "baseline", vocab_size=7, embed_dim=4, units=3))
        names = set(tagger.parameters())
        assert names == {"emb.E", "dense.W", "dense.b"}
        assert tagger.params["dense.W"].shape == (3, 4)  # 3 cue labels, embed width

    def test_bilstm_crf_parameter_set(self):
        tagger = build(TaggerConfig("cue", "bilstm-crf", vocab_size=7, embed_dim=4, units=3))
        names = set(tagger.parameters())
        assert "crf.T" in names and "lstm.f.w_in" in names and "lstm.b.w_rec" in names
        assert not any(n.endswith(".w_aux") for n in names)
        assert tagger.lstm("f").w_in.shape == (12, 4)  # 4 gates x 3 units, embed width
        assert tagger.lstm("b").w_rec.shape == (12, 3)
        assert tagger.params["dense.W"].shape == (3, 6)  # 2 * units
        assert tagger.crf.trans.shape == (5, 5)  # 3 labels + start + end

    def test_scope_model_is_two_input(self):
        tagger = build(TaggerConfig("scope", "bilstm", vocab_size=7, embed_dim=4, units=3))
        assert any(n.endswith(".w_aux") for n in tagger.parameters())
        assert tagger.params["dense.W"].shape == (4, 6)  # 4 scope labels

    def test_scope_post_variant_smooths(self):
        assert smooth_predictions("bilstm-post")
        assert not smooth_predictions("bilstm")

    def test_unknown_variants_are_errors(self):
        with pytest.raises(ValueError, match="unknown cue variant"):
            TaggerConfig("cue", "transformer", 7, 4, 3)
        with pytest.raises(ValueError, match="unknown scope variant"):
            TaggerConfig("scope", "baseline", 7, 4, 3)

    def test_frozen_embeddings_are_not_trainable_params(self):
        frozen = build(TaggerConfig("cue", "bilstm", 7, 4, 3))
        assert "emb.E" not in frozen.trainable_parameters()
        # the pop above left the tagger's own table whole
        assert list(frozen.parameters()) == list(parameter_shapes(frozen.config))
        trained = build(TaggerConfig("cue", "emb-train", 7, 4, 3))
        assert "emb.E" in trained.trainable_parameters()

    def test_build_is_deterministic_per_seed(self):
        cfg = TaggerConfig("cue", "bilstm-crf", 7, 4, 3)
        a, b = build(cfg, seed=11), build(cfg, seed=11)
        for name, arr in a.parameters().items():
            np.testing.assert_array_equal(arr, b.parameters()[name])

    def test_pretrained_matrix_is_adopted(self):
        matrix = np.arange(28, dtype=np.float64).reshape(4, 7)
        tagger = build(TaggerConfig("cue", "bilstm", 7, 4, 3), matrix=matrix)
        np.testing.assert_array_equal(tagger.params["emb.E"], matrix)
        with pytest.raises(ValueError, match="shape"):
            build(TaggerConfig("cue", "bilstm", 7, 4, 3), matrix=np.zeros((3, 7)))


def readme_variant_rows() -> dict[tuple[str, str], tuple[str, str, str]]:
    """(task, variant) -> (embedding, encoder, decision layer) from the
    README's model variant table."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 5 and cells[0] in ("cue", "scope"):
            rows[(cells[0], cells[1].strip("`"))] = tuple(cells[2:5])
    return rows


class TestVariantTable:
    def test_every_variant_matches_the_readme_table(self):
        rows = readme_variant_rows()
        ours = {(task, v): o for task, table in VARIANTS.items() for v, o in table.items()}
        assert set(rows) == set(ours)
        for key, (embedding, encoder, head) in rows.items():
            opts = ours[key]
            assert embedding == ("trainable" if opts["embeddings_trainable"] else "frozen"), key
            assert encoder == ("BiLSTM" if opts["use_lstm"] else "none"), key
            assert head == {"softmax": "softmax", "crf": "CRF"}[opts["head"]], key

    def test_emb_crf_trains_its_embeddings(self):
        tagger = build(TaggerConfig("cue", "emb-crf", 7, 4, 3))
        assert "emb.E" in tagger.trainable_parameters()


class TestPrediction:
    def test_scores_shape(self):
        tagger = build(TaggerConfig("scope", "bilstm", 9, 4, 3))
        scores, _ = tagger.scores([np.array([1, 2, 3, 0, 5])], [np.array([0, 1, 0, 0, 0])])
        assert scores.shape == (4, 5)

    def test_two_input_model_requires_cue_bits(self):
        tagger = build(TaggerConfig("scope", "bilstm", 9, 4, 3))
        with pytest.raises(ValueError, match="cue bits"):
            tagger.scores([np.array([1, 2])])
        with pytest.raises(ValueError, match="one row per sentence"):
            tagger.scores([np.array([1, 2]), np.array([3])], [[0, 1]])

    @pytest.mark.parametrize("bits, match", [
        ([[0, 1, 0], [0, 0]], "row has 3 entries for 4 tokens"),
        ([[0, 1, 0, 0, 0], [0, 0]], "row has 5 entries for 4 tokens"),
        ([[0, 1, 0, 0]], "1 cue bit rows for 2 sentences"),
        ([[0, 1, 0, 0], [0, 0], [1]], "3 cue bit rows for 2 sentences"),
        ([[0, 2, 0, 0], [0, 0]], "0 or 1"),
    ], ids=["short-row", "long-row", "too-few-rows", "too-many-rows", "bit-2"])
    def test_cue_bits_must_be_one_0_1_row_per_sentence(self, bits, match):
        tagger = build(TaggerConfig("scope", "bilstm", 9, 4, 3))
        ids = [np.array([1, 2, 3, 4]), np.array([5, 6])]
        assert len(tagger.predict_tags(ids, [[0, 1, 0, 0], [0, 0]])[0]) == 4
        with pytest.raises(ValueError, match=match):
            tagger.predict_tags(ids, bits)

    def test_softmax_ties_pick_lowest_label(self):
        tagger = build(TaggerConfig("cue", "baseline", 6, 4, 3))
        tagger.params["dense.W"][:] = 0.0
        tagger.params["dense.b"][:] = 0.0
        assert tagger.predict_tags([np.array([1, 2, 3])]) == [["NC", "NC", "NC"]]

    def test_crf_ties_pick_lowest_label(self):
        tagger = build(TaggerConfig("cue", "emb-crf", 6, 4, 3))
        tagger.params["dense.W"][:] = 0.0
        tagger.params["dense.b"][:] = 0.0
        tagger.crf.trans[:] = 0.0
        assert tagger.predict_tags([np.array([1, 2, 3])]) == [["NC", "NC", "NC"]]

    def test_parameters_are_a_new_dict_of_the_live_arrays(self):
        tagger = build(TaggerConfig("cue", "bilstm-crf", 9, 4, 3))
        params = tagger.parameters()
        assert params is not tagger.parameters()
        del params["dense.W"]
        assert list(tagger.parameters()) == list(parameter_shapes(tagger.config))
        params["dense.b"][:] = [0.0, 0.0, 1e3]
        assert tagger.predict_ids([np.array([1, 2, 3])]) == [[2, 2, 2]]

    def test_predict_matches_scores_argmax(self):
        tagger = build(TaggerConfig("cue", "bilstm", 9, 4, 3))
        ids = np.array([1, 5, 2, 8])
        scores, _ = tagger.scores([ids])
        assert tagger.predict_ids([ids]) == [list(scores.argmax(axis=0))]

    def test_a_chunks_states_are_gone_before_the_next_chunk_runs(self, monkeypatch):
        """predict_ids keeps no chunk's cache: the (T, 2U) states of one
        chunk are unreachable when the next chunk's embedding lookup runs."""
        tagger = build(TaggerConfig("cue", "bilstm", 9, 4, 3))
        states, alive = [], []

        def tracked_dense(weights, bias, x):
            states.append(weakref.ref(x))
            return layers.dense_forward(weights, bias, x)

        def tracked_embed(params, ids):
            alive.append(sum(ref() is not None for ref in states))
            return layers.embed(params, ids)

        monkeypatch.setattr(models, "dense_forward", tracked_dense)
        monkeypatch.setattr(models, "embed", tracked_embed)
        monkeypatch.setattr(models, "PREDICT_TOKEN_BUDGET", 4)
        # sorted lengths 2, 2 | 3 | 4: three chunks
        ids = [np.arange(1, n + 1) for n in (3, 2, 4, 2)]
        tagged = tagger.predict_ids(ids)
        assert [len(row) for row in tagged] == [3, 2, 4, 2]
        assert len(states) == 3 and alive == [0, 0, 0]


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        tagger = build(TaggerConfig("scope", "bilstm-crf", 9, 4, 3), seed=5)
        path = tmp_path / "model.npz"
        save_checkpoint(path, tagger, vocab_hash="abc123")
        again, meta = load_checkpoint(path)
        assert meta["vocab_sha256"] == "abc123"
        assert again.config == tagger.config
        for name, arr in tagger.parameters().items():
            np.testing.assert_array_equal(arr, again.parameters()[name])

    def test_round_trip_preserves_predictions(self, tmp_path):
        tagger = build(TaggerConfig("cue", "bilstm-crf", 9, 4, 3), seed=6)
        path = tmp_path / "model.npz"
        save_checkpoint(path, tagger, vocab_hash="x")
        again, _ = load_checkpoint(path)
        ids = [np.array([1, 7, 3, 2, 2]), np.array([4])]
        assert tagger.predict_tags(ids) == again.predict_tags(ids)

    @pytest.mark.parametrize("task,variant", [("cue", "baseline"), ("cue", "bilstm-crf"),
                                              ("scope", "bilstm"), ("scope", "bilstm-crf")])
    def test_loading_draws_no_initial_values(self, tmp_path, monkeypatch, task, variant):
        tagger = build(TaggerConfig(task, variant, 9, 4, 3), seed=7)
        path = tmp_path / "model.npz"
        save_checkpoint(path, tagger, vocab_hash="h")

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew initial values")

        monkeypatch.setattr(layers, "glorot", refuse)
        again, _ = load_checkpoint(path)
        assert list(again.parameters()) == list(tagger.parameters())
        for name, arr in tagger.parameters().items():
            assert np.array_equal(again.parameters()[name], arr), name

    def test_missing_or_misshapen_array_is_named(self, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build(TaggerConfig("scope", "bilstm", 9, 4, 3)), vocab_hash="h")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(path, **{k: v for k, v in arrays.items() if k != "lstm.b.w_aux"})
        with pytest.raises(ValueError, match=r"model.npz: parameter set mismatch: \['lstm.b.w_aux'\]"):
            load_checkpoint(path)
        np.savez(path, **{**arrays, "lstm.f.w_rec": np.zeros((12, 4))})
        with pytest.raises(ValueError,
                           match=r"model.npz: lstm.f.w_rec has shape \(12, 4\), expected \(12, 3\)"):
            load_checkpoint(path)

    def test_format_3_meta_is_pinned(self, tmp_path):
        """The exact __meta__ string, keys in order: format 3 checkpoints
        written before and after a refactor must be byte-identical."""
        path = tmp_path / "model.npz"
        save_checkpoint(path, build(TaggerConfig("cue", "bilstm-crf", 9, 4, 3)), vocab_hash="h")
        with np.load(path) as data:
            assert str(data["__meta__"]) == (
                '{"format": 3, "task": "cue", "variant": "bilstm-crf", '
                '"labels": ["NC", "C", "MC"], "vocab_size": 9, "embed_dim": 4, "units": 3, '
                '"head": "crf", "use_lstm": true, "two_input": false, '
                '"embeddings_trainable": false, "oov_index": 0, "vocab_sha256": "h"}'
            )

    def test_file_is_byte_identical_to_one_written_from_copies(self, tmp_path):
        """save_checkpoint hands np.savez the live float64 parameters, not
        copies of them; the file's bytes must not depend on that."""
        tagger = build(TaggerConfig("scope", "bilstm-crf", 9, 4, 3), seed=8)
        path = tmp_path / "model.npz"
        save_checkpoint(path, tagger, vocab_hash="h")
        with np.load(path) as data:
            meta = data["__meta__"]
        np.savez(tmp_path / "copies.npz", __meta__=meta,
                 **{name: arr.copy() for name, arr in tagger.parameters().items()})
        assert path.read_bytes() == (tmp_path / "copies.npz").read_bytes()

    def test_meta_read_touches_no_parameter_array(self, tmp_path, monkeypatch):
        path = tmp_path / "model.npz"
        save_checkpoint(path, build(TaggerConfig("scope", "bilstm-crf", 9, 4, 3)),
                        vocab_hash="h")
        read, got, getitem = [], {}, np.lib.npyio.NpzFile.__getitem__

        def tracked(self, key):
            read.append(key)
            got[key] = getitem(self, key)
            return got[key]

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", tracked)
        config, meta = read_checkpoint_meta(path)
        assert read == ["__meta__"]
        tagger, again = load_checkpoint(path)
        assert (config, meta) == (tagger.config, again)
        assert read[1] == "__meta__"  # load_checkpoint reads the metadata first too
        assert sorted(read[2:]) == sorted(tagger.parameters())
        # the tagger holds the very arrays np.load returned, uncopied
        assert all(tagger.params[name] is got[name] for name in read[2:])

    def test_a_loaded_table_takes_the_parameter_shapes_order(self, tmp_path):
        tagger = build(TaggerConfig("scope", "bilstm-crf", 9, 4, 3))
        path = tmp_path / "model.npz"
        save_checkpoint(path, tagger, vocab_hash="h")
        rewrite_meta(path, reverse=True)
        with np.load(path) as data:
            assert data.files[-1] == "__meta__"
        assert list(load_checkpoint(path)[0].params) == list(parameter_shapes(tagger.config))

    @pytest.mark.parametrize("damage", ["empty", "truncated", "text", "npy", "meta_list",
                                        "meta_not_json", "array_crc", "compressed_meta"])
    def test_an_unreadable_checkpoint_is_a_value_error_naming_it(self, tmp_path, damage):
        path = tmp_path / "cue.npz"
        save_checkpoint(path, build(TaggerConfig("cue", "bilstm", 9, 4, 3)), vocab_hash="h")
        whole = path.read_bytes()
        readers = (read_checkpoint_meta, load_checkpoint)
        if damage == "array_crc":  # __meta__ is intact, so only the array read fails
            flip_entry_byte(path, "dense.b.npy")
            assert read_checkpoint_meta(path)[0].task == "cue"
            readers = (load_checkpoint,)
        elif damage == "compressed_meta":  # a deflate stream that does not decode
            with np.load(path) as data:
                np.savez_compressed(path, **{name: data[name] for name in data.files})
            flip_entry_byte(path, "__meta__.npy", offset=5)
        else:
            with open(path, "wb") as handle:
                if damage == "truncated":
                    handle.write(whole[:len(whole) // 2])
                elif damage == "text":
                    handle.write(b"not an archive\n")
                elif damage == "npy":
                    np.save(handle, np.zeros(3))
                elif damage != "empty":
                    meta = "[1, 2]" if damage == "meta_list" else "{oops"
                    np.savez(handle, __meta__=np.array(meta))
        for read in readers:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                read(path)

    def test_non_checkpoint_file_is_an_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ValueError, match="missing __meta__"):
            load_checkpoint(path)

    def test_format_1_asks_for_retraining(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(path, __meta__=np.array(json.dumps({"format": 1})))
        with pytest.raises(ValueError, match="format 1.*retrain"):
            load_checkpoint(path)

    def test_format_2_asks_for_retraining(self, tmp_path):
        """Format 2 stored w_aux as a (4U, d) block; the cell now reads a
        (4U,) vector, so such a checkpoint is refused, not reshaped."""
        path = tmp_path / "old.npz"
        save_checkpoint(path, build(TaggerConfig("scope", "bilstm", 9, 4, 3)), vocab_hash="h")
        rewrite_meta(path, format=2)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez(path, **{**arrays, "lstm.f.w_aux": np.zeros((12, 4)),
                          "lstm.b.w_aux": np.zeros((12, 4))})
        with pytest.raises(ValueError, match="old.npz: unsupported checkpoint format 2; "
                                             "an older LSTM layout, retrain"):
            load_checkpoint(path)


def rewrite_meta(path, drop=(), reverse=False, **changes):
    """Rewrite a checkpoint's __meta__; with reverse, its entries are
    written in reverse order, __meta__ last."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(str(arrays.pop("__meta__")))
    meta.update(changes)
    for key in drop:
        del meta[key]
    if reverse:
        np.savez(path, **dict(reversed(arrays.items())), __meta__=np.array(json.dumps(meta)))
    else:
        np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


class TestCheckpointCrossCheck:
    @pytest.mark.parametrize("changes", [
        {"head": "softmax"},
        {"labels": ["O", "B", "C", "A"]},
        {"use_lstm": False},
        {"two_input": True},
        {"variant": "emb-crf"},
        {"task": "scope"},
        {"oov_index": 3},
    ])
    def test_metadata_must_match_the_variant_table(self, tmp_path, changes):
        path = tmp_path / "cue.npz"
        save_checkpoint(path, build(TaggerConfig("cue", "bilstm-crf", 9, 4, 3)), vocab_hash="h")
        rewrite_meta(path, **changes)
        with pytest.raises(ValueError, match="does not match|unknown|unsupported oov index 3"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", [*META_KEYS, "oov_index", "vocab_sha256"])
    def test_missing_metadata_key_is_named(self, tmp_path, key):
        path = tmp_path / "cue.npz"
        save_checkpoint(path, build(TaggerConfig("cue", "bilstm-crf", 9, 4, 3)), vocab_hash="h")
        rewrite_meta(path, drop=[key])
        for read in (read_checkpoint_meta, load_checkpoint):
            with pytest.raises(ValueError, match=f"cue.npz: checkpoint metadata has no '{key}'"):
                read(path)

    def test_unknown_task_is_an_error(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, build(TaggerConfig("cue", "bilstm", 9, 4, 3)), vocab_hash="h")
        rewrite_meta(path, task="speculation")
        with pytest.raises(ValueError, match="unknown task"):
            load_checkpoint(path)

    def test_trainable_flag_may_widen_a_frozen_variant(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, build(TaggerConfig("cue", "bilstm", 9, 4, 3)), vocab_hash="h")
        rewrite_meta(path, embeddings_trainable=True)
        tagger, _ = load_checkpoint(path)
        assert tagger.config.embeddings_trainable

    def test_trainable_variant_cannot_be_stored_frozen(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, build(TaggerConfig("cue", "emb-crf", 9, 4, 3)), vocab_hash="h")
        rewrite_meta(path, embeddings_trainable=False)
        with pytest.raises(ValueError, match="embeddings_trainable=False does not match"):
            load_checkpoint(path)
