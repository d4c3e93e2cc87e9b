import subprocess
import sys
from fractions import Fraction

import pytest

from cantor_toolkit._rat import Q, dec_str, dec_to_rational, rat_str, to_rational


def test_to_rational_accepts_exact_forms():
    assert to_rational("3/7") == Q(3, 7)
    assert to_rational("5") == Q(5)
    assert to_rational(Fraction(2, 9)) == Q(2, 9)
    assert to_rational(Q(1, 3)) == Q(1, 3)


def test_to_rational_rejects_floats():
    with pytest.raises(TypeError):
        to_rational(0.5)


def test_rat_str_roundtrip():
    assert rat_str(Q(1, 3)) == "1/3"
    assert rat_str(Q(4)) == "4/1"
    assert to_rational(rat_str(Q(22, 7))) == Q(22, 7)


def test_dec_str_rounding():
    assert dec_str(Q(1, 3), 6) == "0.333333"
    assert dec_str(Q(2, 3), 6) == "0.666667"
    assert dec_str(Q(1, 2), 0) == "1"  # half-up at zero places
    assert dec_str(Q(1, 8), 2) == "0.13"
    # halves round toward +infinity (floor(x + 1/2)); only positive values
    # are rendered by the toolkit anyway
    assert dec_str(-Q(1, 8), 2) == "-0.12"


def test_dec_to_rational_exact():
    assert dec_to_rational("0.366025") == Q(366025, 10**6)
    assert dec_to_rational("-2.5") == -Q(5, 2)
    assert dec_to_rational("7") == Q(7)


@pytest.mark.parametrize("text", ["1.-5", "1.+5", "0. 5", "+-0.5", "1.2.3", ".", "-", ""])
def test_dec_to_rational_rejects_malformed(text):
    with pytest.raises(ValueError):
        dec_to_rational(text)


def test_package_imports_with_gmpy2_blocked():
    # Q is always fractions.Fraction: with gmpy2 blocked the package still
    # imports and runs, and HAVE_GMPY2 (read by the benchmark records) is False
    script = """
import sys
sys.modules["gmpy2"] = None  # makes 'import gmpy2' raise ImportError
import cantor_toolkit as ct
from cantor_toolkit._rat import HAVE_GMPY2, Q
assert not HAVE_GMPY2
assert Q.__name__ == "Fraction"
b = ct.solve_lambda(Q(1, 2), ct.Code(2, (1, 1)), Q(1, 2**24))
assert abs(float(b) - 0.3660254) < 1e-6
cv = ct.cover(Q(1, 2), 2, 3, Q(1, 2**24))
assert len(cv.intervals) == 4
r = ct.membership(Q(1, 2), Q(2, 5), 2)
assert r.verdict is ct.Verdict.NOT_MEMBER and r.failing_step == 12
print("blocked-ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "blocked-ok" in proc.stdout
