"""Synthetic scene corpus, the JSONL dataset format, and atomic file writes.

Scenes come from a closed grammar (places x subjects x verbs, plus objects
and attributes that only the image feature carries), captions and questions
are rendered from fixed templates, and every bundle is a pure function of
(seed, index) via counter-based child streams.
"""

import hashlib
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

PAD, BOS, EOS, UNK = 0, 1, 2, 3
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

QUESTION_WORDS = ("why", "how", "what", "when", "where", "who", "which")
TAG_SLOTS = 5

PLACES = ("beach", "park", "kitchen", "station", "street", "farm", "forest", "harbor")
SUBJECTS = ("dog", "cat", "man", "woman", "boy", "girl", "horse", "bird", "chef", "player")
VERBS = ("running", "eating", "sleeping", "jumping", "playing", "cooking", "reading", "waiting")
OBJECTS = ("ball", "book", "fish", "apple", "train", "boat", "kite", "guitar")
ATTRIBUTES = ("red", "blue", "small", "big", "old", "young")
FUNCTION_WORDS = ("a", "is", "the", "at", "near", "are", "there", "many", "color", "?")

CAPTION_TEMPLATE = ("a", "{subject}", "is", "{verb}", "at", "the", "{place}")

# first words cover five of the seven question words
QUESTION_TEMPLATES = (
    ("what", "is", "the", "{subject}", "{verb}", "?"),
    ("where", "is", "the", "{subject}", "?"),
    ("who", "is", "{verb}", "near", "the", "{object}", "?"),
    ("why", "is", "the", "{subject}", "{verb}", "?"),
    ("how", "many", "{object}", "are", "there", "?"),
    ("what", "color", "is", "the", "{attribute}", "{object}", "?"),
    ("is", "the", "{subject}", "{verb}", "at", "the", "{place}", "?"),
)

# image feature layout: [subject indicators | object indicators | attribute indicators]
IMAGE_FEATURE_SLOTS = len(SUBJECTS) + len(OBJECTS) + len(ATTRIBUTES)
PLACE_FEATURE_SLOTS = len(PLACES)
DEFAULT_FEATURE_DIM = 32
DEFAULT_NOISE = 0.1


# word -> coarse POS over the closed corpus. Nouns and pronouns map to
# "noun", verbs and adverbs to "verb", everything else to "other".
LEXICON = {**{w: "other" for w in ATTRIBUTES + FUNCTION_WORDS + QUESTION_WORDS},
           **{w: "noun" for w in SUBJECTS + OBJECTS + PLACES},
           **{w: "verb" for w in VERBS}}


class Vocabulary:
    """Dense token ids with the four reserved slots pinned to 0..3."""

    def __init__(self, tokens):
        self._tokens = list(RESERVED_TOKENS)
        seen = set(self._tokens)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self._tokens.append(tok)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}

    @classmethod
    def default(cls) -> "Vocabulary":
        words = sorted(set(SUBJECTS + OBJECTS + PLACES + VERBS + ATTRIBUTES
                           + FUNCTION_WORDS + QUESTION_WORDS))
        return cls(words)

    def __len__(self):
        return len(self._tokens)

    def id(self, tok: str) -> int:
        return self._ids.get(tok, UNK)

    def token(self, idx: int) -> str:
        return self._tokens[idx]

    def encode(self, words) -> list:
        return [self.id(w) for w in words]

    def decode(self, ids) -> list:
        return [self.token(i) for i in ids]

    @property
    def tokens(self):
        return tuple(self._tokens)

    def fingerprint(self) -> str:
        """SHA-256 of the token list in id order: two vocabularies share it
        exactly when every id names the same token."""
        return hashlib.sha256(json.dumps(self._tokens).encode("utf-8")).hexdigest()


@dataclass
class TagSet:
    """Exactly five PAD-padded token ids per category."""
    noun: list
    verb: list
    question: list

    def sequence(self) -> list:
        """The 15-token concatenation noun || verb || question."""
        return list(self.noun) + list(self.verb) + list(self.question)

    def validate(self, vocab: Vocabulary):
        for name, ids in (("noun", self.noun), ("verb", self.verb), ("question", self.question)):
            if len(ids) != TAG_SLOTS:
                raise ValueError(f"{name} tags must have exactly {TAG_SLOTS} slots, got {len(ids)}")
        allowed = {vocab.id(w) for w in QUESTION_WORDS} | {PAD}
        if not set(self.question) <= allowed:
            raise ValueError(f"question tags outside the question-word set: {self.question}")


@dataclass
class SceneSpec:
    """Latent scene slots, all drawn from the closed lexicon."""
    place: str
    subject: str
    verb: str
    object: str
    attribute: str

    def slots(self) -> dict:
        return {"place": self.place, "subject": self.subject, "verb": self.verb,
                "object": self.object, "attribute": self.attribute}


@dataclass
class CueBundle:
    """One example: features for the visual cues plus token-id sequences."""
    id: str
    image_feat: np.ndarray
    place_feat: np.ndarray
    caption: list                 # token ids, no BOS/EOS
    tags: TagSet
    questions: list               # each a token-id list ending with EOS
    scene: SceneSpec | None = None


@dataclass
class Dataset:
    vocab: Vocabulary
    bundles: list
    image_dim: int
    place_dim: int


def _pad_tags(ids) -> list:
    return (list(ids) + [PAD] * TAG_SLOTS)[:TAG_SLOTS]


def extract_tags(caption_ids, vocab: Vocabulary, questions=None) -> TagSet:
    """POS-split caption tokens (by LEXICON) into noun/verb tags (caption
    order, first five) and take question tags from the leading words of the
    reference questions when they are question words; all categories
    PAD-padded to 5."""
    nouns, verbs = [], []
    for tid in caption_ids:
        pos = LEXICON.get(vocab.token(tid))
        if pos == "noun":
            nouns.append(tid)
        elif pos == "verb":
            verbs.append(tid)
    qtags = []
    for q in questions or ():
        if q and vocab.token(q[0]) in QUESTION_WORDS:
            qtags.append(q[0])
    return TagSet(noun=_pad_tags(nouns), verb=_pad_tags(verbs), question=_pad_tags(qtags))


def render(template, scene: SceneSpec) -> list:
    slots = scene.slots()
    return [w.format(**slots) if "{" in w else w for w in template]


def _scene(rng: RngStream) -> SceneSpec:
    """Place, subject, verb, object and attribute, drawn in that order."""
    return SceneSpec(*(words[int(rng.integers(0, len(words)))]
                       for words in (PLACES, SUBJECTS, VERBS, OBJECTS, ATTRIBUTES)))


def image_feature(scene: SceneSpec, dim: int, noise: float, rng: RngStream) -> np.ndarray:
    """Indicator blocks for subject/object/attribute plus N(0, noise^2)."""
    if dim < IMAGE_FEATURE_SLOTS:
        raise ValueError(f"image dim {dim} < {IMAGE_FEATURE_SLOTS} indicator slots")
    feat = np.zeros(dim)
    feat[SUBJECTS.index(scene.subject)] = 1.0
    feat[len(SUBJECTS) + OBJECTS.index(scene.object)] = 1.0
    feat[len(SUBJECTS) + len(OBJECTS) + ATTRIBUTES.index(scene.attribute)] = 1.0
    if noise > 0:
        feat = feat + noise * rng.normal((dim,))
    return feat


def place_feature(scene: SceneSpec, dim: int, noise: float, rng: RngStream) -> np.ndarray:
    if dim < PLACE_FEATURE_SLOTS:
        raise ValueError(f"place dim {dim} < {PLACE_FEATURE_SLOTS} indicator slots")
    feat = np.zeros(dim)
    feat[PLACES.index(scene.place)] = 1.0
    if noise > 0:
        feat = feat + noise * rng.normal((dim,))
    return feat


def synth_generate(n: int, seed: int, image_dim: int = DEFAULT_FEATURE_DIM,
                   place_dim: int = DEFAULT_FEATURE_DIM, noise: float = DEFAULT_NOISE,
                   questions_per: int = 5) -> Dataset:
    """Generate n bundles; (seed, index) determines each bundle exactly, so
    regeneration with the same seed is bitwise reproducible regardless of n."""
    if not (1 <= questions_per <= len(QUESTION_TEMPLATES)):
        raise ValueError(f"questions_per must be in [1, {len(QUESTION_TEMPLATES)}]")
    if not (0.0 <= noise < float("inf")):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    vocab = Vocabulary.default()
    root = RngStream(seed).child("synth")
    bundles = []
    for i in range(n):
        r = root.child(i)
        scene = _scene(r.child("scene"))
        caption = vocab.encode(render(CAPTION_TEMPLATE, scene))
        order = r.child("templates").shuffled(range(len(QUESTION_TEMPLATES)))
        chosen = sorted(order[:questions_per])
        questions = [vocab.encode(render(QUESTION_TEMPLATES[k], scene)) + [EOS]
                     for k in chosen]
        tags = extract_tags(caption, vocab, questions)
        with np.errstate(over="ignore"):   # reported by the check below
            image_feat = image_feature(scene, image_dim, noise, r.child("img"))
            place_feat = place_feature(scene, place_dim, noise, r.child("plc"))
        if not (np.isfinite(image_feat).all() and np.isfinite(place_feat).all()):
            raise ValueError(f"noise {noise} overflows the features of example {i}")
        bundles.append(CueBundle(id=f"ex{i:05d}", image_feat=image_feat,
                                 place_feat=place_feat, caption=caption, tags=tags,
                                 questions=questions, scene=scene))
    return Dataset(vocab=vocab, bundles=bundles, image_dim=image_dim, place_dim=place_dim)


# ---------------------------------------------------------------------------
# artifact files

@contextmanager
def atomic_write(path):
    """Open `path` for writing text, all or nothing: the block writes a temp
    file in the same directory, which replaces `path` (os.replace) only when
    the block finishes. If the block raises, `path` keeps its old bytes and
    the temp file is removed."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# JSONL dataset files: one header record, then one record per bundle

def save_dataset(path, ds: Dataset):
    with atomic_write(path) as fh:
        header = {"vocab": list(ds.vocab.tokens), "image_dim": ds.image_dim,
                  "place_dim": ds.place_dim, "count": len(ds.bundles)}
        fh.write(json.dumps(header) + "\n")
        for b in ds.bundles:
            rec = {"id": b.id, "image_feat": b.image_feat.tolist(),
                   "place_feat": b.place_feat.tolist(), "caption": list(b.caption),
                   "tags": {"noun": list(b.tags.noun), "verb": list(b.tags.verb),
                            "question": list(b.tags.question)},
                   "questions": [list(q) for q in b.questions]}
            if b.scene is not None:
                rec["scene"] = b.scene.slots()
            fh.write(json.dumps(rec) + "\n")


def _check_ids(ids, vocab_size, line_no, what):
    for t in ids:
        if isinstance(t, bool) or not isinstance(t, int) or not (0 <= t < vocab_size):
            raise ValueError(f"line {line_no}: {what} contains invalid token id {t!r}")


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset; malformed lines (a header vocab that repeats a
    token, a feature width or token id that is not a JSON integer (true and
    false are not), an empty caption, a question with PAD or BOS in it or
    EOS anywhere but at its end, a non-finite or non-numeric feature, or a
    scene that is not an object of the five slots among them) raise
    ValueError with their line number, and so does a header with no
    examples after it."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("line 1: missing dataset header")
    try:
        header = json.loads(lines[0])
        vocab_list = header["vocab"]
        image_dim, place_dim = header["image_dim"], header["place_dim"]
        for name, dim in (("image_dim", image_dim), ("place_dim", place_dim)):
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise ValueError(f"{name} must be an integer, got {dim!r}")
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"line 1: bad dataset header: {e}") from None
    if not isinstance(vocab_list, list) or not all(isinstance(w, str) for w in vocab_list):
        raise ValueError("line 1: vocab must be a list of strings")
    if vocab_list[:4] != list(RESERVED_TOKENS):
        raise ValueError("line 1: vocab must begin with the four reserved tokens")
    repeats = [w for w, count in Counter(vocab_list).items() if count > 1]
    if repeats:
        # Vocabulary would drop the repeat and shift every later id
        raise ValueError(f"line 1: vocab repeats token {repeats[0]!r}")
    vocab = Vocabulary(vocab_list[4:])
    vsz = len(vocab)

    bundles = []
    for k, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"line {k}: invalid JSON: {e}") from None
        try:
            image_feat = np.asarray(rec["image_feat"], dtype=np.float64)
            place_feat = np.asarray(rec["place_feat"], dtype=np.float64)
            caption = list(rec["caption"])
            tags = TagSet(noun=list(rec["tags"]["noun"]), verb=list(rec["tags"]["verb"]),
                          question=list(rec["tags"]["question"]))
            questions = [list(q) for q in rec["questions"]]
            bid = rec["id"]
            scene = SceneSpec(**rec["scene"]) if "scene" in rec else None
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"line {k}: missing or malformed field: {e}") from None
        for what, feat, dim in (("image_feat", image_feat, image_dim),
                                ("place_feat", place_feat, place_dim)):
            if feat.shape != (dim,):
                raise ValueError(f"line {k}: {what} has shape {feat.shape}, "
                                 f"header says ({dim},)")
            if not np.isfinite(feat).all():
                raise ValueError(f"line {k}: {what} has non-finite values")
        if not caption:
            raise ValueError(f"line {k}: caption is empty")
        _check_ids(caption, vsz, k, "caption")
        if not questions:
            raise ValueError(f"line {k}: bundle has no questions")
        for q in questions:
            _check_ids(q, vsz, k, "question")
            if not q or q[-1] != EOS:
                raise ValueError(f"line {k}: question does not end with EOS")
            if PAD in q or BOS in q or EOS in q[:-1]:
                # a loss mask would drop an interior PAD, and scoring cuts
                # the reference at its first EOS
                raise ValueError(f"line {k}: question holds PAD, BOS or an EOS before "
                                 "its end")
        _check_ids(tags.sequence(), vsz, k, "tags")
        try:
            tags.validate(vocab)
        except ValueError as e:
            raise ValueError(f"line {k}: {e}") from None
        bundles.append(CueBundle(id=bid, image_feat=image_feat, place_feat=place_feat,
                                 caption=caption, tags=tags, questions=questions,
                                 scene=scene))
    if not bundles:
        raise ValueError("dataset has a header but no examples")
    return Dataset(vocab=vocab, bundles=bundles, image_dim=image_dim, place_dim=place_dim)
