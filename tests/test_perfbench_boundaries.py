"""The benchmark's tracer (`perfbench/tracing.py`) wraps mcvqg functions by
name. `Tracer._replace` reads each one from `owner.__dict__`, so a rename, a
method moved to a base class, or a dropped import in `mcvqg.train` breaks
`perfbench/run.py --trace 1`. These checks keep that visible to the test
suite under `tests/`."""

import importlib.util
import os

import pytest

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

