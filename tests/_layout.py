"""The one layout conversion the tests share.

Test data and the loop oracles in `_oracles` use (N, C, H, W); the tensor
ops take and return channels-last (N, H, W, C) arrays.
"""

import numpy as np


def nhwc(x):
    """(N, C, H, W) -> a C-contiguous (N, H, W, C) copy, for an op's input."""
    return np.ascontiguousarray(np.moveaxis(x, 1, -1))


def nchw(x):
    """(N, H, W, C) -> an (N, C, H, W) view, to compare an op's result."""
    return np.moveaxis(x, -1, 1)
