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
_HIGH_BIT = 1 << 63
_LOCAL = threading.local()


def _thread_generator() -> np.random.Generator:
    """This thread's one Philox generator. A draw sets its whole state
    first, so what it drew before never shows."""
    generator = getattr(_LOCAL, "generator", None)
    if generator is None:
        generator = np.random.Generator(np.random.Philox(key=0))
        _LOCAL.generator = generator
    return generator


def _splitmix64(values, mix: int = 0) -> list:
    """SplitMix64's mixer on `x ^ mix` for each int x of `values`, in one loop."""
    out = []
    for x in values:
        x = ((x ^ mix) + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(x ^ (x >> 31))
    return out


def _uint64_pair(a: int, b: int) -> tuple:
    """The ints of `np.asarray([a, b]).astype(np.uint64)`, the conversion a
    generator's list arguments key=[seed, id] and counter=[0, c, 0, 0] go
    through.

    numpy keeps the list exact when both values lie in [0, 2**63) or both in
    [2**63, 2**64). If exactly one is >= 2**63 the list becomes float64,
    which keeps 53 bits of each. Where that float rounds up to 2**64, or a
    value lies outside [0, 2**64), the cast is left to numpy itself.
    """
    if 0 <= a <= _MASK64 and 0 <= b <= _MASK64:
        if (a < _HIGH_BIT) == (b < _HIGH_BIT):
            return a, b
        key = int(float(a)), int(float(b))
        if key[0] <= _MASK64 and key[1] <= _MASK64:
            return key
    return tuple(int(v) for v in np.asarray([a, b]).astype(np.uint64))


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

    No draw builds a generator. Each thread holds one Philox generator. A
    draw call builds one state, holding its counter block, and then per id
    sets the key (seed, id) in it, hands it to the generator and draws, so
    the bits are those of a generator freshly built on that key and
    counter. A uniform or normal draw allocates its output once and each id
    fills its own block of rows in place; `child` and `rows` derive all
    their ids in one loop.

    Distinct ids do not always give distinct keys. Next to a seed < 2**63,
    the key of an id >= 2**63 goes through float64 (see `_uint64_pair`): it
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
        mix = _splitmix64((_tag_to_int(tag),))[0]
        return self._derive(_splitmix64(self.streams, mix))

    def rows(self, count: int) -> "RngStream":
        """The ids of child(0) .. child(count - 1) as one stream: sample t
        of a Monte-Carlo batch owns block t of the rows of every draw."""
        if count < 1:
            raise ValueError(f"rows needs count >= 1, got {count}")
        return self._derive(_splitmix64(_splitmix64(range(count)), self.stream))

    def _each_id(self, method, *args, rows=None) -> list:
        """`method(generator, *args)` once per id, in id order, each id on
        this call's counter block of its own key; given `rows`, the call for
        id i fills rows[i] (`out=`)."""
        generator = _thread_generator()
        bit_generator = generator.bit_generator
        # built per call, so no other call or thread ever sees it; only its
        # key changes from id to id
        philox = {"counter": (0, _uint64_pair(0, self.counter)[1], 0, 0), "key": None}
        state = {"bit_generator": "Philox", "state": philox,
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.counter += 1
        seed = self.seed
        out = []
        for i, s in enumerate(self.streams):
            philox["key"] = _uint64_pair(seed, s)
            bit_generator.state = state
            out.append(method(generator, *args) if rows is None
                       else method(generator, *args, out=rows[i]))
        return out

    def _check_one_id(self):
        if len(self.streams) != 1:
            raise TypeError("a stream of several ids draws only uniform and normal arrays")

    def _draw(self, method, shape):
        out = np.empty(shape)
        count = len(self.streams)
        if count > 1 and (not out.ndim or out.shape[0] % count):
            raise ShapeError(f"row-stacked draw of shape {out.shape}: the leading "
                             f"extent must be a multiple of {count} rows")
        # row i of this view is id i's contiguous block of the output
        self._each_id(method, rows=out.reshape(count, out.size // count))
        return out

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
