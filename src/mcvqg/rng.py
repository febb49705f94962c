"""Counter-based random streams for reproducible stochastic passes."""

import functools
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


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

    Every draw is fully determined by (seed, stream, counter): replaying a
    stream with the same state replays its draws bitwise, and sibling streams
    derived via `child` are statistically independent, so Monte-Carlo samples
    can be produced in any order without changing their values. Each draw
    call occupies its own counter block, so the sizes of earlier draws never
    shift later ones.
    """

    __slots__ = ("seed", "stream", "counter")

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self.counter = int(counter)

    def child(self, tag) -> "RngStream":
        """Derive an independent stream; same (parent, tag) -> same child."""
        mixed = _splitmix64(self.stream ^ _splitmix64(_tag_to_int(tag)))
        return RngStream(self.seed, mixed)

    def rows(self, count: int) -> "RowStreams":
        """The streams child(0) .. child(count - 1) drawn as one batch.

        Sample t of a Monte-Carlo batch owns block t of the rows, and every
        draw gives that block exactly what child(t) draws alone.
        """
        if count < 1:
            raise ValueError(f"rows needs count >= 1, got {count}")
        return RowStreams([self.child(t) for t in range(count)])

    def state(self):
        return (self.seed, self.stream, self.counter)

    def _generator(self) -> np.random.Generator:
        bits = np.random.Philox(key=[self.seed, self.stream],
                                counter=[0, self.counter, 0, 0])
        self.counter += 1
        return np.random.Generator(bits)

    def uniform(self, shape=()):
        """Uniform float64 draws on [0, 1)."""
        return self._generator().random(shape)

    def normal(self, shape=()):
        """Standard normal float64 draws."""
        return self._generator().standard_normal(shape)

    def integers(self, low: int, high: int, shape=()):
        """Integer draws on [low, high)."""
        return self._generator().integers(low, high, size=shape)

    def shuffled(self, seq):
        """A shuffled copy of `seq` (the stream advances by one draw call)."""
        out = list(seq)
        self._generator().shuffle(out)
        return out

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream}, counter={self.counter})"


class RowStreams(RngStream):
    """T sibling streams stacked along the batch axis.

    A draw whose leading extent is k * T splits into T contiguous blocks of k
    rows, and block t equals, bit for bit, what stream t draws for a batch of
    k alone: one row per Monte-Carlo sample when k = 1. `child` derives the
    same tag on every stream, so a model run on T stacked copies of an input
    sees each sample's masks exactly as T separate runs on stream t would.
    Any other leading extent raises `ShapeError`.
    """

    __slots__ = ("streams",)

    def __init__(self, streams):
        self.streams = tuple(streams)

    def child(self, tag) -> "RowStreams":
        return RowStreams([s.child(tag) for s in self.streams])

    def _stack(self, draw: str, shape):
        shape = tuple(shape)
        count = len(self.streams)
        if not shape or shape[0] % count:
            from .autodiff import ShapeError  # autodiff imports this module
            raise ShapeError(f"row-stacked draw of shape {shape}: the leading "
                             f"extent must be a multiple of {count} rows")
        block = (shape[0] // count,) + shape[1:]
        return np.concatenate([getattr(s, draw)(block) for s in self.streams])

    def uniform(self, shape=()):
        return self._stack("uniform", shape)

    def normal(self, shape=()):
        return self._stack("normal", shape)

    def _generator(self):
        raise TypeError("row-stacked streams draw only uniform and normal arrays")

    def __repr__(self):
        return f"RowStreams({len(self.streams)} rows, first={self.streams[0]!r})"
