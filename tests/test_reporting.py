from fractions import Fraction

import pytest

from bracketlab.reporting import check

SENSES = ("<=", "<", ">=", ">", "==")


@pytest.mark.parametrize(
    "value, bound, sense, tol, margin, passed",
    [
        (1.0, 2.0, "<=", 0.0, 1.0, True),
        (3.0, 2.0, "<=", 0.0, -1.0, False),
        (2.5, 2.0, "<=", 0.5, -0.5, True),
        (1.0, 2.0, "<", 0.0, 1.0, True),
        (2.5, 2.0, "<", 0.5, -0.5, False),
        (3.0, 2.0, ">=", 0.0, 1.0, True),
        (1.0, 2.0, ">=", 0.0, -1.0, False),
        (1.5, 2.0, ">=", 0.5, -0.5, True),
        (3.0, 2.0, ">", 0.0, 1.0, True),
        (1.5, 2.0, ">", 0.5, -0.5, False),
        (2.5, 2.0, "==", 0.0, -0.5, False),
        (1.5, 2.0, "==", 0.5, -0.5, True),
        (2.0, 2.0, "<=", 0.0, 0.0, True),
        (2.0, 2.0, ">=", 0.0, 0.0, True),
        (2.0, 2.0, "==", 0.0, 0.0, True),
        (2.0, 2.0, "<", 0.0, 0.0, False),
        (2.0, 2.0, ">", 0.0, 0.0, False),
    ],
)
def test_check_margin_and_pass(value, bound, sense, tol, margin, passed):
    rec = check(value, bound, sense, "sampled", tol)
    assert rec == {"value": value, "bound": bound, "sense": sense, "method": "sampled",
                   "tol": tol, "margin": margin, "pass": passed}


@pytest.mark.parametrize("sense", SENSES)
def test_nan_never_passes(sense):
    assert check(float("nan"), 1.0, sense, "sampled", 1.0)["pass"] is False
    assert check(1.0, float("nan"), sense, "sampled", 1.0)["pass"] is False


def test_exact_inputs_compare_exactly():
    # 10^-400 rounds to 0.0 as a float, but the comparison is made first
    tiny = check(Fraction(1, 10**400), 0, "==", "certified")
    assert tiny["pass"] is False and tiny["value"] == 0.0
    assert check(Fraction(1, 3), Fraction(1, 3), "==", "certified")["pass"] is True


@pytest.mark.parametrize("sense, method", [("=<", "sampled"), ("<=", "measured"), ("", "")])
def test_unknown_sense_or_method_raises(sense, method):
    with pytest.raises(ValueError):
        check(1.0, 2.0, sense, method)
