"""Synthetic corpus and dataset file format."""

import json

import numpy as np
import pytest

import mcvqg.data as D
from mcvqg.data import (BOS, EOS, PAD, UNK, TagSet, Vocabulary, atomic_write,
                        extract_tags, load_dataset, save_dataset, synth_generate)


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary.default()
        assert v.id("<pad>") == PAD == 0
        assert v.id("<bos>") == BOS == 1
        assert v.id("<eos>") == EOS == 2
        assert v.id("<unk>") == UNK == 3

    def test_dense_and_round_trip(self):
        v = Vocabulary.default()
        ids = list(range(len(v)))
        assert v.encode(v.decode(ids)) == ids
        words = ["dog", "beach", "what", "?"]
        assert v.decode(v.encode(words)) == words

    def test_unknown_word_maps_to_unk(self):
        v = Vocabulary(["apple"])
        assert v.id("zebra") == UNK

    def test_duplicates_collapse(self):
        v = Vocabulary(["a", "b", "a"])
        assert len(v) == 6
        assert v.id("a") != v.id("b")


class TestExtractTags:
    def test_caption_example(self):
        v = Vocabulary.default()
        caption = v.encode(["a", "dog", "is", "running", "at", "the", "beach"])
        tags = extract_tags(caption, v)
        assert v.decode(tags.noun) == ["dog", "beach", "<pad>", "<pad>", "<pad>"]
        assert v.decode(tags.verb) == ["running", "<pad>", "<pad>", "<pad>", "<pad>"]

    def test_function_words_only_gives_all_pad(self):
        v = Vocabulary.default()
        caption = v.encode(["a", "is", "the", "at"])
        tags = extract_tags(caption, v)
        assert tags.noun == [PAD] * 5
        assert tags.verb == [PAD] * 5

    def test_question_tags_from_reference_first_words(self):
        v = Vocabulary.default()
        caption = v.encode(["a", "dog", "is", "running", "at", "the", "beach"])
        questions = [
            v.encode(["what", "is", "the", "dog", "running", "?"]) + [EOS],
            v.encode(["where", "is", "the", "dog", "?"]) + [EOS],
            v.encode(["is", "the", "dog", "running", "?"]) + [EOS],  # not a question word
        ]
        tags = extract_tags(caption, v, questions=questions)
        assert v.decode(tags.question) == ["what", "where", "<pad>", "<pad>", "<pad>"]

    def test_truncation_at_five(self):
        v = Vocabulary.default()
        caption = v.encode(["dog", "cat", "man", "woman", "boy", "girl", "horse"])
        tags = extract_tags(caption, v)
        assert len(tags.noun) == 5
        assert v.decode(tags.noun) == ["dog", "cat", "man", "woman", "boy"]

    def test_question_tag_validation(self):
        v = Vocabulary.default()
        bad = TagSet(noun=[PAD] * 5, verb=[PAD] * 5, question=[v.id("dog")] + [PAD] * 4)
        with pytest.raises(ValueError):
            bad.validate(v)


class TestSynthGenerate:
    def test_deterministic_and_prefix_stable(self):
        a = synth_generate(10, seed=7)
        b = synth_generate(10, seed=7)
        c = synth_generate(4, seed=7)
        for x, y in zip(a.bundles, b.bundles):
            assert np.array_equal(x.image_feat, y.image_feat)
            assert x.questions == y.questions
        # bundles are (seed, index)-determined: shorter runs are prefixes
        for x, y in zip(c.bundles, a.bundles):
            assert np.array_equal(x.image_feat, y.image_feat)
            assert x.caption == y.caption

    def test_different_seed_differs(self):
        a = synth_generate(6, seed=1)
        b = synth_generate(6, seed=2)
        assert any(x.caption != y.caption or not np.array_equal(x.image_feat, y.image_feat)
                   for x, y in zip(a.bundles, b.bundles))

    def test_caption_template_shape(self):
        ds = synth_generate(20, seed=3)
        for b in ds.bundles:
            words = ds.vocab.decode(b.caption)
            assert words[0] == "a" and words[2] == "is" and words[4:6] == ["at", "the"]
            assert words[1] in D.SUBJECTS and words[3] in D.VERBS and words[6] in D.PLACES

    def test_zero_noise_gives_exact_indicators(self):
        ds = synth_generate(5, seed=4, noise=0.0)
        for b in ds.bundles:
            assert set(np.unique(b.image_feat)) <= {0.0, 1.0}
            assert b.image_feat.sum() == 3.0        # subject + object + attribute
            assert b.place_feat.sum() == 1.0
            assert b.image_feat[D.SUBJECTS.index(b.scene.subject)] == 1.0
            assert b.place_feat[D.PLACES.index(b.scene.place)] == 1.0

    def test_noise_scale(self):
        ds = synth_generate(50, seed=5)
        off = np.concatenate([b.image_feat for b in ds.bundles])
        # indicator entries aside, values hover near 0 with sd ~0.1
        assert np.abs(off).max() < 2.0
        assert 0.05 < np.abs(off[np.abs(off) < 0.5]).std() < 0.2

    @pytest.mark.parametrize("noise", [float("inf"), float("nan"), -1.0, -1e-300])
    def test_noise_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            synth_generate(2, seed=5, noise=noise)

    def test_noise_that_overflows_the_features_is_rejected(self):
        with pytest.raises(ValueError, match="overflows the features"):
            synth_generate(2, seed=5, noise=1e308)

    def test_questions_eos_terminated_and_counted(self):
        ds = synth_generate(15, seed=6)
        for b in ds.bundles:
            assert len(b.questions) == 5
            for q in b.questions:
                assert q[-1] == EOS
                assert all(t != PAD for t in q)

    def test_first_word_coverage(self):
        ds = synth_generate(500, seed=8)
        first = {ds.vocab.token(q[0]) for b in ds.bundles for q in b.questions}
        assert len(first & set(D.QUESTION_WORDS)) >= 4

    def test_tag_slots(self):
        ds = synth_generate(10, seed=9)
        for b in ds.bundles:
            assert len(b.tags.noun) == len(b.tags.verb) == len(b.tags.question) == 5
            assert len(b.tags.sequence()) == 15

    def test_feature_dims_configurable(self):
        ds = synth_generate(3, seed=10, image_dim=40, place_dim=16)
        assert ds.bundles[0].image_feat.shape == (40,)
        assert ds.bundles[0].place_feat.shape == (16,)
        with pytest.raises(ValueError):
            synth_generate(1, seed=0, image_dim=10)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        ds = synth_generate(8, seed=11)
        path = tmp_path / "data.jsonl"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert len(back.bundles) == 8
        assert back.vocab.tokens == ds.vocab.tokens
        for a, b in zip(ds.bundles, back.bundles):
            assert a.id == b.id
            assert np.array_equal(a.image_feat, b.image_feat)   # exact float round-trip
            assert a.caption == b.caption
            assert a.questions == b.questions
            assert a.tags.sequence() == b.tags.sequence()

    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _valid_lines(self, n=2):
        ds = synth_generate(n, seed=12)
        import io
        buf = io.StringIO()
        header = {"vocab": list(ds.vocab.tokens), "image_dim": ds.image_dim,
                  "place_dim": ds.place_dim, "count": n}
        lines = [json.dumps(header)]
        for b in ds.bundles:
            lines.append(json.dumps({
                "id": b.id, "image_feat": b.image_feat.tolist(),
                "place_feat": b.place_feat.tolist(), "caption": list(b.caption),
                "tags": {"noun": b.tags.noun, "verb": b.tags.verb, "question": b.tags.question},
                "questions": [list(q) for q in b.questions],
            }))
        return lines

    def test_bad_json_line_numbered(self, tmp_path):
        lines = self._valid_lines()
        lines[2] = "{not json"
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(self._write(tmp_path, lines))

    def test_bad_token_id(self, tmp_path):
        lines = self._valid_lines()
        rec = json.loads(lines[1])
        rec["caption"][0] = 10_000
        lines[1] = json.dumps(rec)
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(self._write(tmp_path, lines))

    def test_question_missing_eos(self, tmp_path):
        lines = self._valid_lines()
        rec = json.loads(lines[1])
        rec["questions"][0] = rec["questions"][0][:-1]
        lines[1] = json.dumps(rec)
        with pytest.raises(ValueError, match="line 2.*EOS"):
            load_dataset(self._write(tmp_path, lines))

    def test_feature_dim_mismatch(self, tmp_path):
        lines = self._valid_lines()
        rec = json.loads(lines[2])
        rec["image_feat"] = rec["image_feat"][:-1]
        lines[2] = json.dumps(rec)
        with pytest.raises(ValueError, match="line 3.*image_feat"):
            load_dataset(self._write(tmp_path, lines))

    def test_empty_caption_line_numbered(self, tmp_path):
        # one empty caption would otherwise train inside a batch and fail
        # only when its example is encoded alone
        lines = self._valid_lines()
        rec = json.loads(lines[2])
        rec["caption"] = []
        lines[2] = json.dumps(rec)
        with pytest.raises(ValueError, match="line 3.*caption is empty"):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize("field", ["image_feat", "place_feat"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_feature_line_numbered(self, tmp_path, field, value):
        # json reads NaN and Infinity literals
        lines = self._valid_lines()
        rec = json.loads(lines[2])
        rec[field][1] = value
        lines[2] = json.dumps(rec)
        with pytest.raises(ValueError, match=f"line 3.*{field}.*non-finite"):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize("field", ["image_feat", "place_feat"])
    def test_non_numeric_feature_line_numbered(self, tmp_path, field):
        lines = self._valid_lines()
        rec = json.loads(lines[2])
        rec[field][1] = "x"
        lines[2] = json.dumps(rec)
        with pytest.raises(ValueError, match="line 3: .*could not convert"):
            load_dataset(self._write(tmp_path, lines))

    def test_scene_round_trips(self, tmp_path):
        ds = synth_generate(3, seed=13)
        path = tmp_path / "data.jsonl"
        save_dataset(path, ds)
        assert [b.scene for b in load_dataset(path).bundles] == \
            [b.scene for b in ds.bundles]

    @pytest.mark.parametrize("scene", [{"foo": 1}, [1], "kitchen"])
    def test_malformed_scene_line_numbered(self, tmp_path, scene):
        lines = self._valid_lines()
        rec = json.loads(lines[2])
        rec["scene"] = scene
        lines[2] = json.dumps(rec)
        with pytest.raises(ValueError, match="line 3: "):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize("vocab", [5, "abc", [None], {"<pad>": 0}])
    def test_vocab_must_be_a_list_of_strings(self, tmp_path, vocab):
        lines = self._valid_lines()
        header = json.loads(lines[0])
        header["vocab"] = vocab
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="line 1: vocab must be a list of strings"):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize("position,token", [(10, None), (20, "<eos>")])
    def test_repeated_vocab_token_rejected(self, tmp_path, position, token):
        lines = self._valid_lines()
        header = json.loads(lines[0])
        vocab = header["vocab"]
        vocab[position] = vocab[5] if token is None else token
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError,
                           match=f"line 1: vocab repeats token '{vocab[position]}'"):
            load_dataset(self._write(tmp_path, lines))

    def test_non_integer_header_dim_line_numbered(self, tmp_path):
        lines = self._valid_lines()
        header = json.loads(lines[0])
        header["image_dim"] = "x"
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="line 1: bad dataset header"):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize("name", ["image_dim", "place_dim"])
    @pytest.mark.parametrize("offset", [0.9, 0.0])
    def test_fractional_header_dim_line_numbered(self, tmp_path, name, offset):
        # int() would truncate 32.9 to 32 and accept the file
        lines = self._valid_lines()
        header = json.loads(lines[0])
        header[name] += offset
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError,
                           match=f"line 1: bad dataset header: {name} must be an integer"):
            load_dataset(self._write(tmp_path, lines))

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("where", ["caption", "question", "noun", "verb", "question_tag"])
    def test_boolean_token_id_line_numbered(self, tmp_path, where, value):
        # json reads true / false, which equal the ids 1 (BOS) and 0 (PAD)
        lines = self._valid_lines()
        rec = json.loads(lines[2])
        ids = {"caption": rec["caption"], "question": rec["questions"][0],
               "noun": rec["tags"]["noun"], "verb": rec["tags"]["verb"],
               "question_tag": rec["tags"]["question"]}[where]
        ids[0] = value
        lines[2] = json.dumps(rec)
        with pytest.raises(ValueError, match=f"line 3: .* invalid token id {value}"):
            load_dataset(self._write(tmp_path, lines))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(path)

    def test_wrong_tag_arity(self, tmp_path):
        lines = self._valid_lines()
        rec = json.loads(lines[1])
        rec["tags"]["noun"] = rec["tags"]["noun"][:3]
        lines[1] = json.dumps(rec)
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(self._write(tmp_path, lines))


class TestAtomicWrite:
    def test_replaces_the_file_when_the_block_finishes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_writer_raising_mid_write_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"a,b\n1,2\n")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_write(path) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("mid-write")
        assert path.read_bytes() == b"a,b\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_write(tmp_path / "new.jsonl") as fh:
                fh.write("{")
                raise ValueError("bad record")
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            with atomic_write(tmp_path / "absent" / "x.csv") as fh:
                fh.write("x")

    def test_save_dataset_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "d.jsonl"
        save_dataset(path, synth_generate(3, 1))
        before = path.read_bytes()
        bad = synth_generate(3, 2)
        monkeypatch.setattr(bad.bundles[2], "caption", [object()])
        with pytest.raises(TypeError):
            save_dataset(path, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]
