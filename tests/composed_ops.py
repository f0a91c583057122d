"""Test-only ops, built on ``emgtcn.tensor.make_op`` as the library's
ops are. The library never calls them; the tests reduce an op's output
to a scalar loss with them.
"""

import numpy as np

from emgtcn.tensor import Tensor, make_op


def sum_all(x: Tensor) -> Tensor:
    """The sum of every element of ``x``, as a 0-d tensor."""

    def backward(g):
        return (np.broadcast_to(g, x.data.shape),)

    return make_op(np.asarray(x.data.sum()), (x,), backward)
