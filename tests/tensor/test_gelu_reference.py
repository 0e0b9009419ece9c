"""``F.gelu`` against the same tanh formula evaluated in float64.

The finite-difference check in ``test_grad_check`` is loose (1e-3 step,
5e-2 rtol); this one pins forward and backward to a few float32 ulps of the
exact formula, so a rewrite of the op's arithmetic that changes its
rounding stays bounded and one that changes its maths fails.
"""

import math

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F

_S = math.sqrt(2.0 / math.pi)
_C = 0.044715

# The dense range covers the whole curve: below -12 the output is 0 and
# above 12 it is x in float32.  The far points check that the cube
# neither overflows nor loses the saturation there.
X = np.concatenate([
    np.linspace(-12.0, 12.0, 48001, dtype=np.float32),
    np.array([-1000.5, -1000.0, -999.5, 999.5, 1000.0, 1000.5], dtype=np.float32),
])


def _reference(x32):
    x = x32.astype(np.float64)
    t = np.tanh(_S * (x + _C * x**3))
    out = 0.5 * x * (1.0 + t)
    grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _S * (1.0 + 3.0 * _C * x**2)
    return out, grad


@pytest.fixture(scope="module")
def gelu_run():
    x = Tensor(X.copy(), requires_grad=True)
    out = F.gelu(x)
    out.sum().backward()
    return out.data, x.grad


# Tolerances in float32 ulps (eps = 1.2e-7): about 8 eps relative.
def test_forward_matches_float64_formula(gelu_run):
    out, _ = gelu_run
    ref, _ = _reference(X)
    np.testing.assert_allclose(out, ref, rtol=1e-6, atol=5e-7)


def test_gradient_matches_float64_derivative(gelu_run):
    _, grad = gelu_run
    _, ref = _reference(X)
    # 1 - t**2 cancels in float32 where tanh nears 1: t's half-ulp error,
    # times x * dinner (about 10 at x = 5), needs about 25 eps absolute.
    np.testing.assert_allclose(grad, ref, rtol=1e-6, atol=3e-6)


def test_output_and_gradient_stay_float32(gelu_run):
    out, grad = gelu_run
    assert out.dtype == np.float32
    assert grad.dtype == np.float32
