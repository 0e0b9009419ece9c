"""No ``**`` on the training path may leave NumPy's fast power set.

``ndarray.__pow__`` has fast paths for the exponents -1, 0, 0.5, 1 and 2
(reciprocal, ones, sqrt, copy, square).  Any other exponent calls the C
``pow`` once per element: a float32 cube costs about 100 times ``x * x * x``,
and in GELU it once cost more than every GEMM of the MLP block.  This test
finds such powers by their literal exponent; write them as products or
``np.sqrt``/``np.square`` chains instead.
"""

import ast
import os

import pytest

import repro

FAST_EXPONENTS = {-1, 0, 0.5, 1, 2}
PACKAGES = ("tensor", "nn", "compression", "parallel", "optim", "training")
PKG_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def _literal(node):
    """The number ``node`` spells, or ``None`` if it is not a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _literal(node.operand)
        return None if value is None else -value
    return None


def slow_powers(source: str):
    """``(line, exponent)`` of each ``**`` whose literal exponent is slow.

    A power of two literals is Python arithmetic and is skipped.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exp = node.left, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            base, exp = node.target, node.value
        else:
            continue
        value = _literal(exp)
        if value is None or value in FAST_EXPONENTS or _literal(base) is not None:
            continue
        found.append((node.lineno, value))
    return found


def _sources():
    for pkg in PACKAGES:
        for dirpath, _, files in os.walk(os.path.join(PKG_DIR, pkg)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def test_no_slow_literal_powers_on_the_training_path():
    offenders = []
    for path in _sources():
        with open(path, encoding="utf-8") as fh:
            for line, exp in slow_powers(fh.read()):
                offenders.append(f"{os.path.relpath(path, PKG_DIR)}:{line} ** {exp}")
    assert not offenders, "per-element pow on the training path: " + ", ".join(offenders)


@pytest.mark.parametrize("source, expected", [
    ("y = x ** 3", [(1, 3)]),
    ("y = 0.5 * (x + c * x**3)", [(1, 3)]),
    ("y = x ** -2", [(1, -2)]),
    ("y = x ** 1.5", [(1, 1.5)]),
    ("x **= 4", [(1, 4)]),
    ("y = x ** 2 + x ** 0.5 + x ** -1 + x ** 1 + x ** 0", []),
    ("y = x ** n", []),
    ("n = 2 ** 31", []),
])
def test_slow_powers_finds_literal_exponents(source, expected):
    assert slow_powers(source) == expected
