"""Deterministic float formatting, the JSON emitter and atomic writes."""

import json
import math
import os
import stat

import numpy as np
import pytest

from mingraphs import serialize
from mingraphs.serialize import atomic_write, fmt_float, to_json


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


def test_to_json_nested():
    obj = {"a": [1, 0.1, None], "b": (True, False), "c": {"d": "x", "e": [], "f": -0.0},
           "g": 2.0}
    text = to_json(obj)
    assert text == ('{"a": [1, 0.10000000000000001, null], "b": [true, false], '
                    '"c": {"d": "x", "e": [], "f": -0}, "g": 2}')
    assert json.loads(text) == {"a": [1, 0.1, None], "b": [True, False],
                                "c": {"d": "x", "e": [], "f": 0.0}, "g": 2.0}


def test_to_json_bool_is_not_int():
    assert (to_json(True), to_json(False), to_json(1), to_json(0)) == ("true", "false", "1", "0")


def test_to_json_non_finite_quoted():
    text = to_json([float("nan"), float("inf"), float("-inf"), 1e300])
    assert text == '["nan", "inf", "-inf", 1.0000000000000001e+300]'
    assert json.loads(text) == ["nan", "inf", "-inf", 1e300]


def test_to_json_escapes():
    raw = 'back\\slash "quoted"\nline'
    text = to_json({"notes": [raw]})
    assert text == '{"notes": ["back\\\\slash \\"quoted\\"\\nline"]}'
    assert json.loads(text) == {"notes": [raw]}


def test_to_json_escapes_keys():
    key = 'a"b\\c\nd'
    text = to_json({key: 1})
    assert text == '{"a\\"b\\\\c\\nd": 1}'
    assert json.loads(text) == {key: 1}


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), {1, 2}, b"bytes"],
                         ids=["numpy-bool", "numpy-int", "set", "bytes"])
def test_to_json_refuses_other_types(value):
    # VerificationReport.to_dict coerces its fields to bool and float for this
    with pytest.raises(TypeError, match="cannot serialize"):
        to_json({"key": [value]})


def test_atomic_write_creates_parents(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    assert atomic_write(target, "one\n") == target
    assert target.read_text() == "one\n"
    assert sorted(p.name for p in target.parent.iterdir()) == ["out.txt"]


def test_atomic_write_replaces(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old text that is longer\n")
    atomic_write(str(target), "new\n")
    assert target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)],
                         ids=["umask-022", "umask-002"])
def test_atomic_write_mode_follows_the_umask(tmp_path, umask, mode):
    # the mode open(path, "w") would give, not the temp file's 0o600
    old = os.umask(umask)
    try:
        path = atomic_write(tmp_path / "out.txt", "text\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


@pytest.mark.parametrize("failure", ["write", "rename"])
def test_atomic_write_failure_keeps_old_target(tmp_path, monkeypatch, failure):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    text = "new\n"
    if failure == "write":
        text = "lone surrogate \ud800 cannot be encoded"
        expected = UnicodeEncodeError
    else:
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(serialize.os, "replace", refuse)
        expected = OSError
    with pytest.raises(expected):
        atomic_write(target, text)
    assert target.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
