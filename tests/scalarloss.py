"""A scalar loss for tests, built from ops the parser itself calls."""

import numpy as np

from arcforge.tensor import Tensor, linear, reshape


def total(y: Tensor) -> Tensor:
    """The sum of y's entries as a 1 x 1 tensor: y's entries as one row
    times a ones column, so backward hands each entry a gradient of exactly
    1 times the loss's."""
    row = reshape(y, (1, -1))
    return linear(row, Tensor(np.ones((row.data.shape[1], 1), dtype=y.data.dtype)))
