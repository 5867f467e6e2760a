"""The report's float encoder against Python's own float text, and
scripts/check_float_encoder.py, which runs the full gate."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerkelvin.report import _CSV_SPECIAL, _JSON_SPECIAL, _encode

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_float_encoder.py"


@pytest.fixture(scope="module")
def check():
    spec = importlib.util.spec_from_file_location("check_float_encoder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_words_are_the_references(values):
    """Every word equals the cell that str(list) and json.dumps(list) write."""
    for special, reference in ((_CSV_SPECIAL, str), (_JSON_SPECIAL, json.dumps)):
        got = _encode(values, special)
        assert got.dtype == np.dtype("S24")
        want = reference(values.tolist())[1:-1].split(", ")
        bad = np.flatnonzero(got != np.array(want, "S24"))
        assert not len(bad), [(values[i].hex(), got[i], want[i]) for i in bad[:5]]


def test_the_edge_cases(check):
    values = check.edge_cases()
    bits = set(values.view(np.uint64).tolist())
    for want in [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e-322, 1e-4, 1e16,
                 2.2250738585072014e-308, 1.7976931348623157e308, 2.0 ** -1021,
                 np.nextafter(1e-4, 0.0), np.nextafter(1e16, np.inf), -1e-323]:
        assert np.float64(want).view(np.uint64) in bits, want
    # NaNs of both signs, one with a payload
    assert {0x7FF8000000000001, 0xFFF8000000000001} <= bits
    assert_words_are_the_references(values)


def test_every_subnormal_below_2_to_the_20(check):
    assert_words_are_the_references(check.subnormals(2 ** 20))


def test_seeded_random_bit_patterns(check):
    (values,) = check.random_patterns(200_000, seed=35)
    assert_words_are_the_references(values)


def test_one_digit_is_enough():
    # repr keeps no second digit that the value does not need: 5e-324, not
    # 4.9e-324, and 5e-323 .. 1e-322 as written here
    values = np.arange(1, 21, dtype=np.uint64).view(np.float64)
    assert [w.decode() for w in _encode(values, _CSV_SPECIAL)] == [
        "5e-324", "1e-323", "1.5e-323", "2e-323", "2.5e-323", "3e-323",
        "3.5e-323", "4e-323", "4.4e-323", "5e-323", "5.4e-323", "6e-323",
        "6.4e-323", "7e-323", "7.4e-323", "8e-323", "8.4e-323", "9e-323",
        "9.4e-323", "1e-322"]


def test_the_script_prints_zero_mismatches():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--count", "20000", "--subnormals", "4096"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[-1] == "0 mismatches"
    assert "random bit patterns, seed 0: 20000 values, 0 mismatches" in lines
    assert "subnormals below 4096: 4095 values, 0 mismatches" in lines


def test_the_script_exits_1_on_a_mismatch(check, monkeypatch, capsys):
    def one_off(values, special):
        words = _encode(values, special)
        words[0] = b"0.1"
        return words

    monkeypatch.setattr(check, "_encode", one_off)
    assert check.main(["--count", "10", "--subnormals", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "6 mismatches"
