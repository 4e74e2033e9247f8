"""Deterministic float formatting."""

import math

import numpy as np
import pytest

from mingraphs.serialize import fmt_float


@pytest.mark.parametrize("value, text", [
    (float("nan"), "nan"),
    (math.copysign(float("nan"), -1.0), "nan"),
    (np.float64(-np.nan), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (0.0, "0"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (1e300, "1.0000000000000001e+300"),
    (np.float32(0.1), "0.10000000149011612"),
    (2, "2"),
])
def test_fmt_float(value, text):
    assert fmt_float(value) == text


def test_fmt_float_round_trips():
    gen = np.random.default_rng(7)
    values = np.concatenate([gen.normal(size=200), np.exp(gen.uniform(-700, 700, 200))])
    assert all(float(fmt_float(v)) == v for v in values.tolist())
