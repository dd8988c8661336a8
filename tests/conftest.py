import numpy as np
import pytest

from sadprec.sparse import CsrMatrix, SaddleSystem


@pytest.fixture
def toy_t1():
    """The smallest saddle system: A = 2, B = 1, C = 0, f = 1, g = 0."""
    return SaddleSystem(
        CsrMatrix.from_dense([[2.0]]),
        CsrMatrix.from_dense([[1.0]]),
        CsrMatrix.zeros(1, 1),
        np.array([1.0]),
        np.array([0.0]),
    )
