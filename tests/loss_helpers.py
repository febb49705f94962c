"""A scalar loss for tests that need one from a tensor of any shape."""

import numpy as np

import mcvqg.autodiff as ad


def reshaped(x, shape):
    """`x` with its entries laid out as `shape`, as a tape node whose
    backward lays the gradient back out as `x`."""
    def backward_fn(g):
        ad._accum(x, g.reshape(x.data.shape))

    return ad._make(x.data.reshape(shape), (x,), backward_fn)


def total(x):
    """Sum of every entry of `x` as a scalar tape node: `x` flattened to n
    steps of one row, summed under an all-ones (1, n) mask."""
    n = x.data.size
    return ad.masked_step_sum(reshaped(x, (n,)), np.ones((1, n)))
