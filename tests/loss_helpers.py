"""A scalar loss for tests that need one from a tensor of any shape."""

import numpy as np

import mcvqg.autodiff as ad


def total(x):
    """Sum of every entry of `x` as a scalar tape node: `x` flattened to n
    steps of one row, summed under an all-ones (1, n) mask."""
    n = x.data.size
    return ad.masked_step_sum(ad.reshape(x, (n,)), np.ones((1, n)))
