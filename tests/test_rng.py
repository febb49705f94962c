"""Counter-based stream reproducibility and splitting."""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcvqg.autodiff import ShapeError
from mcvqg.rng import RngStream, _uint64_pair


class TestReproducibility:
    def test_same_state_same_draws(self):
        a = RngStream(123, stream=7)
        b = RngStream(123, stream=7)
        x = a.uniform((4, 5))
        y = b.uniform((4, 5))
        assert x.dtype == np.float64
        assert np.array_equal(x, y)

    def test_counter_advances_between_calls(self):
        s = RngStream(1)
        x = s.uniform((8,))
        y = s.uniform((8,))
        assert not np.array_equal(x, y)

    def test_replay_from_saved_counter(self):
        s = RngStream(9, stream=2)
        s.uniform((3,))
        state = (s.seed, s.stream, s.counter)
        first = s.normal((6,))
        replay = RngStream(*state).normal((6,))
        assert np.array_equal(first, replay)

    def test_draw_size_does_not_shift_later_calls(self):
        # each call owns a counter block, so draw lengths never alias
        a = RngStream(5)
        a.uniform((2,))
        after_small = a.uniform((4,))
        b = RngStream(5)
        b.uniform((1000,))
        after_big = b.uniform((4,))
        assert np.array_equal(after_small, after_big)


class TestSplitting:
    def test_child_deterministic(self):
        s = RngStream(42)
        for tag in (3, "enc"):
            a, b = s.child(tag), s.child(tag)
            assert (a.seed, a.stream, a.counter) == (b.seed, b.stream, b.counter)

    def test_children_distinct(self):
        s = RngStream(42)
        streams = {s.child(i).stream for i in range(100)}
        assert len(streams) == 100

    def test_children_independent_of_draw_order(self):
        s = RngStream(42)
        c2_first = s.child(2).normal((5,))
        c1 = s.child(1).normal((5,))
        s2 = RngStream(42)
        c1_first = s2.child(1).normal((5,))
        c2 = s2.child(2).normal((5,))
        assert np.array_equal(c1, c1_first)
        assert np.array_equal(c2, c2_first)

    def test_child_stream_ids_are_pinned(self):
        # the hash of a str or tuple tag is memoized: a repeated tag, in any
        # order, gives the same stream, and the equal tuples ("w", 1) and
        # ("w", np.int64(1)) keep their distinct streams
        parent = RngStream(2020, stream=5)
        pinned = [("caption", 6508331216720876372), (("w", 1), 7628246020216705545),
                  (("w", np.int64(1)), 6174413749113342189), (7, 9853691929716327830)]
        for tags in (pinned, pinned[::-1]):
            for tag, stream in tags:
                c = parent.child(tag)
                assert (c.seed, c.stream, c.counter) == (2020, stream, 0)

    def test_distinct_streams_decorrelated(self):
        s = RngStream(0)
        x = s.child("a").normal((4000,))
        y = s.child("b").normal((4000,))
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.05


class TestRowStreams:
    def test_row_t_draws_what_child_t_draws_alone(self):
        s = RngStream(42).child("mc")
        for draw, shape in (("uniform", (5, 7)), ("normal", (5, 3)),
                            ("uniform", (5,))):
            stacked = getattr(s.rows(5).child("enc"), draw)(shape)
            assert stacked.shape == shape
            for t in range(5):
                alone = getattr(s.child(t).child("enc"), draw)((1,) + shape[1:])
                assert stacked[t:t + 1].tobytes() == alone.tobytes()

    def test_each_row_advances_its_own_counter(self):
        s = RngStream(42)
        rows = s.rows(3)
        rows.uniform((3, 7))
        second = rows.normal((3, 2))
        for t in range(3):
            alone = s.child(t)
            alone.uniform((1, 7))
            assert second[t:t + 1].tobytes() == alone.normal((1, 2)).tobytes()

    def test_blocks_of_rows_draw_what_child_t_draws_for_the_block(self):
        s = RngStream(8)
        stacked = s.rows(3).uniform((6, 4))
        for t in range(3):
            assert stacked[2 * t:2 * t + 2].tobytes() == \
                s.child(t).uniform((2, 4)).tobytes()

    def test_leading_extent_must_be_a_multiple_of_the_rows(self):
        rows = RngStream(1).rows(4)
        for shape in ((3, 2), (5,), ()):
            with pytest.raises(ShapeError):
                rows.uniform(shape)
            with pytest.raises(ShapeError):
                rows.normal(shape)


class TestRowIds:
    def test_row_child_ids_are_the_child_streams_ids(self):
        s = RngStream(42).child("mc")
        for tag in ("enc", ("w", 1), 3):
            ids = list(s.rows(20).child(tag).streams)
            assert ids == [s.child(t).child(tag).stream for t in range(20)]
        # the row path keys ids past 2**63 as the one-id path does
        assert any(i >= 1 << 63 for i in ids)
        stacked = s.rows(20).child(3).normal((20, 2))
        for t in range(20):
            assert stacked[t:t + 1].tobytes() == s.child(t).child(3).normal((1, 2)).tobytes()

    def test_one_row_draws_any_shape(self):
        s = RngStream(6)
        for shape in ((), (5,), (3, 2)):
            assert s.rows(1).uniform(shape).tobytes() == s.child(0).uniform(shape).tobytes()

    def test_several_ids_have_no_single_id_draw(self):
        rows = RngStream(1).rows(2)
        for call in (lambda: rows.integers(0, 5, (2,)), lambda: rows.shuffled([1, 2]),
                     lambda: rows.stream, lambda: rows.rows(2)):
            with pytest.raises(TypeError):
                call()


def _fresh(seed, stream, counter):
    """The generator a draw on (seed, stream) at `counter` is defined by."""
    return np.random.Generator(np.random.Philox(key=[seed, stream],
                                                counter=[0, counter, 0, 0]))


BIG = 1 << 63


class TestReusedGenerator:
    """Every draw reuses one generator per thread; its bits must be those of
    a freshly built Philox on the same (key, counter)."""

    KEYS = [(2020, 5), (2020, BIG + 12345), (BIG + 7, 5), (BIG + 7, BIG + 12345),
            (0, (1 << 64) - 4096)]

    @pytest.mark.parametrize("seed, stream", KEYS)
    def test_draws_equal_a_fresh_generator(self, seed, stream):
        s = RngStream(seed, stream=stream, counter=3)
        assert s.uniform((2, 5)).tobytes() == _fresh(seed, stream, 3).random((2, 5)).tobytes()
        assert s.normal((7,)).tobytes() == \
            _fresh(seed, stream, 4).standard_normal((7,)).tobytes()
        assert s.integers(-4, 9, (3, 3)).tobytes() == \
            _fresh(seed, stream, 5).integers(-4, 9, size=(3, 3)).tobytes()
        expected = list(range(12))
        _fresh(seed, stream, 6).shuffle(expected)
        assert s.shuffled(range(12)) == expected
        assert s.counter == 7

    def test_rows_draw_each_id_on_a_fresh_generator(self):
        rows = RngStream(9).child("mc").rows(4)
        stacked = rows.normal((8, 3))
        assert any(i >= BIG for i in rows.streams)
        expected = np.concatenate([_fresh(9, i, 0).standard_normal((2, 3))
                                   for i in rows.streams])
        assert stacked.tobytes() == expected.tobytes()

    def test_interleaved_streams_draw_what_each_draws_alone(self):
        a, b = RngStream(11, stream=1), RngStream(11, stream=BIG + 1)
        a1, b1, a2 = a.uniform((5,)), b.normal((4,)), a.normal((3, 2))
        a, b = RngStream(11, stream=1), RngStream(11, stream=BIG + 1)
        assert a1.tobytes() == a.uniform((5,)).tobytes()
        assert a2.tobytes() == a.normal((3, 2)).tobytes()
        assert b1.tobytes() == b.normal((4,)).tobytes()

    def test_threads_drawing_at_once_get_the_sequential_bits(self):
        def run(seed):
            parent = RngStream(seed)
            return [getattr(parent.child(i), draw)((3, 4)).tobytes()
                    for i in range(300) for draw in ("uniform", "normal")]

        seeds = (21, 22)
        expected = [run(seed) for seed in seeds]
        got = [None, None]
        barrier = threading.Barrier(2)

        def worker(k):
            barrier.wait()
            got[k] = run(seeds[k])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == expected

    def test_golden_draw(self):
        # pinned from the generator-per-draw implementation
        s = RngStream(2020, stream=5)
        digest = hashlib.sha256(s.uniform((2, 3)).tobytes() + s.normal((4,)).tobytes())
        assert digest.hexdigest() == \
            "0802d5854d8ed98e3a3be6e3b464a79e6394ee1eed592ae64bf0a477eb111384"
        s = RngStream(BIG + 2020, stream=BIG + 5)
        digest = hashlib.sha256(s.uniform((2, 3)).tobytes() + s.normal((4,)).tobytes())
        assert digest.hexdigest() == \
            "edd5466a40295c5963b78d14de95bef5e943ebe067b8fee4235aee370b795028"


TOP = 1 << 64
# the classes numpy's list conversion tells apart: below 2**63 (exact up to
# 2**53 through float64, rounded above it), at or above 2**63, and the top
# 1024 values, which round to 2**64 through float64
KEY_VALUES = st.one_of(st.integers(0, BIG - 1), st.integers(BIG, TOP - 1),
                       st.integers(1 << 53, BIG - 1), st.integers(TOP - 1024, TOP - 1))


class TestKeyConversion:
    """Keys and counters are Python ints, converted as numpy converts the
    list arguments of a freshly built Philox."""

    @settings(max_examples=300, deadline=None)
    @given(seed=KEY_VALUES, stream=KEY_VALUES)
    @example(seed=1, stream=2).via("both < 2**63")
    @example(seed=BIG + 1, stream=BIG + 2).via("both >= 2**63")
    @example(seed=1, stream=BIG + 12345).via("seed < 2**63 <= id")
    @example(seed=BIG + 12345, stream=1).via("id < 2**63 <= seed")
    @example(seed=(1 << 53) + 1, stream=BIG).via("float64 rounds the seed")
    @example(seed=1, stream=TOP - 1000).via("the id rounds to 2**64")
    @example(seed=TOP - 1, stream=0).via("the seed rounds to 2**64")
    def test_key_is_numpys_uint64_list(self, seed, stream):
        with np.errstate(invalid="ignore"):
            expected = np.asarray([seed, stream]).astype(np.uint64)
            got = _uint64_pair(seed, stream)
        assert all(type(v) is int for v in got)
        assert got == tuple(int(v) for v in expected)

    @settings(max_examples=100, deadline=None)
    @given(seed=KEY_VALUES, stream=KEY_VALUES, counter=KEY_VALUES)
    @example(seed=1, stream=BIG + 5, counter=TOP - 1).via("the counter rounds to 2**64")
    @example(seed=3, stream=4, counter=-1).via("a negative counter wraps")
    def test_draws_equal_a_fresh_generator_on_any_key(self, seed, stream, counter):
        with np.errstate(invalid="ignore"):
            got = RngStream(seed, stream=stream, counter=counter).uniform((3,))
            expected = _fresh(seed, stream, counter).random((3,))
        assert got.tobytes() == expected.tobytes()


class TestRowStackedDraws:
    @settings(max_examples=150, deadline=None)
    @given(seed=KEY_VALUES, ids=st.integers(1, 5), block=st.integers(1, 3),
           trailing=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           kinds=st.lists(st.sampled_from(["uniform", "normal"]), min_size=1, max_size=3))
    def test_blocks_equal_per_id_fresh_draws(self, seed, ids, block, trailing, kinds):
        rows = RngStream(seed).child("mc").rows(ids)
        shape = (ids * block, *trailing)
        for counter, kind in enumerate(kinds):
            with np.errstate(invalid="ignore"):
                stacked = getattr(rows, kind)(shape)
                method = "random" if kind == "uniform" else "standard_normal"
                expected = [getattr(_fresh(seed, i, counter), method)((block, *trailing))
                            for i in rows.streams]
            assert stacked.shape == shape and stacked.flags.c_contiguous
            assert stacked.tobytes() == b"".join(e.tobytes() for e in expected)


class TestMoments:
    def test_uniform_range_and_mean(self):
        x = RngStream(7).uniform((20000,))
        assert x.min() >= 0.0 and x.max() < 1.0
        assert abs(x.mean() - 0.5) < 0.01

    def test_integers_range(self):
        x = RngStream(7).integers(2, 9, (5000,))
        assert x.min() >= 2 and x.max() <= 8
        assert set(np.unique(x)) == set(range(2, 9))
