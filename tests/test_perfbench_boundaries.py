"""The benchmark's tracer (`perfbench/tracing.py`) wraps mcvqg functions by
name. `Tracer._replace` reads each one from `owner.__dict__`, so a rename, a
method moved to a base class, or a dropped import in `mcvqg.train` breaks
`perfbench/run.py --trace 1`. The benchmark also calls
`MultiCueModel.encode` with `stochastic=` in every run, and its token hook
unpacks what `generate_mc` returns. These checks keep all of that visible
to the test suite under `tests/`."""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from mcvqg.autodiff import Tensor
from mcvqg.decoder import Decoder
from mcvqg.nn import Dropout, EmbeddingTable
from mcvqg.rng import RngStream

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_is_an_own_attribute(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.BOUNDARIES
               if attr not in owner.__dict__]
    assert missing == []


def test_counted_constructors_and_draws_are_own_attributes(tracing):
    assert "__init__" in tracing.autodiff.Tensor.__dict__
    for attr in tracing.RNG_DRAWS:
        assert attr in tracing.rng.RngStream.__dict__, attr



def test_encode_keeps_the_stochastic_keyword(tracing):
    # perfbench/checks.py passes stochastic= to MultiCueModel.encode
    assert "stochastic" in inspect.signature(tracing.model.MultiCueModel.encode).parameters


def test_generate_mc_returns_what_the_token_hook_unpacks(tracing):
    rng = RngStream(3)
    dec = Decoder(4, 3, 5, 9, Dropout(0.3, "bernoulli"), rng.child("dec"),
                  EmbeddingTable(9, 3, rng.child("emb")))
    out = tracing.train.generate_mc(dec, lambda rows: Tensor(np.zeros((3, 4))),
                                    T=3, max_len=4, rng=rng.child("mc"))
    assert isinstance(out, tuple) and len(out) == 3
    assert "committee_tokens" in out[2]
    span = tracing.Span("generate_mc", -1)
    tracing._mc_tokens(span, (), out)
    assert span.note == sum(len(s.tokens) for s in out[0]) + len(out[2]["committee_tokens"])
