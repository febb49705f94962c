"""Counter-based random streams for reproducible stochastic passes.

A pass is stochastic exactly when it is given a stream: the model's
components take an optional `RngStream` and keep dropout off without one.
A stream carries one id, or n ids from `rows(n)` when n Monte-Carlo samples
run as the n row blocks of one batch.
"""

import functools
import hashlib
import threading

import numpy as np

from .autodiff import ShapeError

_MASK64 = (1 << 64) - 1
_LOCAL = threading.local()


def _thread_generator() -> np.random.Generator:
    """This thread's one Philox generator. A draw sets its whole state
    first, so what it drew before never shows."""
    generator = getattr(_LOCAL, "generator", None)
    if generator is None:
        generator = np.random.Generator(np.random.Philox(key=0))
        _LOCAL.generator = generator
    return generator


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return _text_to_int(str(tag))


@functools.lru_cache(maxsize=1024)
def _text_to_int(text: str) -> int:
    # keyed on the text, not the tag: ("w", 1) and ("w", np.int64(1)) are
    # equal keys but hash different texts
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """Splittable counter-based random stream (Philox under the hood).

    Every draw is determined by (seed, stream id, counter): replaying a
    stream with the same state replays its draws bitwise, and sibling
    streams derived via `child` are statistically independent, so
    Monte-Carlo samples can be produced in any order without changing their
    values. Each draw call occupies its own counter block, so the sizes of
    earlier draws never shift later ones.

    A stream from `rows(n)` holds the n ids of child(0) .. child(n - 1) and
    one shared counter. Its `child` derives the tag on every id, and a
    uniform or normal draw whose leading extent is k * n splits into n
    contiguous blocks of k rows: block t equals, bit for bit, what id t
    draws for k rows alone. A model run on n stacked copies of an input
    therefore sees sample t's masks exactly as a run on child(t) would. Any
    other leading extent raises `ShapeError`.

    No draw builds a generator. Each thread holds one Philox generator, and
    a draw sets its state, id by id, to the key (seed, id) and the call's
    counter block before drawing, so the bits are those of a generator
    freshly built on that key and counter.

    Distinct ids do not always give distinct keys. Next to a seed < 2**63,
    the key of an id >= 2**63 goes through float64 (see `_each_id`): it
    keeps only the id's top 53 bits, so neighbouring ids draw alike, and
    an id in [2**64 - 1024, 2**64) rounds to 2**64 and keys as id 0. For
    hashed ids such a collision is unlikely, but not impossible.
    """

    __slots__ = ("seed", "streams", "counter")

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.streams = (int(stream) & _MASK64,)
        self.counter = int(counter)

    def _derive(self, streams) -> "RngStream":
        out = object.__new__(RngStream)
        out.seed = self.seed
        out.streams = tuple(streams)
        out.counter = 0
        return out

    @property
    def stream(self) -> int:
        """The id of a one-id stream."""
        if len(self.streams) != 1:
            raise TypeError(f"a stream of {len(self.streams)} ids has no single id")
        return self.streams[0]

    def child(self, tag) -> "RngStream":
        """Derive an independent stream; same (parent, tag) -> same child."""
        mix = _splitmix64(_tag_to_int(tag))
        return self._derive([_splitmix64(s ^ mix) for s in self.streams])

    def rows(self, count: int) -> "RngStream":
        """The ids of child(0) .. child(count - 1) as one stream: sample t
        of a Monte-Carlo batch owns block t of the rows of every draw."""
        if count < 1:
            raise ValueError(f"rows needs count >= 1, got {count}")
        stream = self.stream
        return self._derive([_splitmix64(stream ^ _splitmix64(t)) for t in range(count)])

    def state(self):
        return (self.seed, self.stream, self.counter)

    def _each_id(self, method, *args) -> list:
        """`method(generator, *args)` once per id, in id order, each id on
        this call's counter block of its own key."""
        generator = _thread_generator()
        bit_generator = generator.bit_generator
        # counter and key convert as numpy converts a generator's list
        # arguments key=[seed, id] and counter=[0, c, 0, 0]: an id >= 2**63
        # next to a seed < 2**63 makes the key float64, and changing that
        # would move every draw on it
        counter = np.asarray([0, self.counter, 0, 0]).astype(np.uint64)
        self.counter += 1
        out = []
        for s in self.streams:
            bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": counter,
                          "key": np.asarray([self.seed, s]).astype(np.uint64)},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            out.append(method(generator, *args))
        return out

    def _check_one_id(self):
        if len(self.streams) != 1:
            raise TypeError("a stream of several ids draws only uniform and normal arrays")

    def _draw(self, method, shape):
        count = len(self.streams)
        if count == 1:
            return self._each_id(method, shape)[0]
        shape = tuple(shape)
        if not shape or shape[0] % count:
            raise ShapeError(f"row-stacked draw of shape {shape}: the leading "
                             f"extent must be a multiple of {count} rows")
        block = (shape[0] // count,) + shape[1:]
        return np.concatenate(self._each_id(method, block))

    def uniform(self, shape=()):
        """Uniform float64 draws on [0, 1)."""
        return self._draw(np.random.Generator.random, shape)

    def normal(self, shape=()):
        """Standard normal float64 draws."""
        return self._draw(np.random.Generator.standard_normal, shape)

    def integers(self, low: int, high: int, shape=()):
        """Integer draws on [low, high); one-id streams only."""
        self._check_one_id()
        return self._each_id(np.random.Generator.integers, low, high, shape)[0]

    def shuffled(self, seq):
        """A shuffled copy of `seq` (the stream advances by one draw call);
        one-id streams only."""
        self._check_one_id()
        out = list(seq)
        self._each_id(np.random.Generator.shuffle, out)
        return out

    def __repr__(self):
        return f"RngStream(seed={self.seed}, streams={self.streams}, counter={self.counter})"
