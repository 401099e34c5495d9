import math
from fractions import Fraction

import pytest

from clifbundle.report import Check, Report


def row(residual, tolerance=0.0, **kwargs) -> Check:
    return Check("law", residual, tolerance, "a = b", **kwargs)


def test_a_row_passes_when_its_residual_is_within_tolerance():
    assert row(1e-9, 1e-8).passed
    assert row(1e-8, 1e-8).passed
    assert not row(2e-8, 1e-8).passed


def test_a_precondition_that_does_not_hold_fails_a_zero_residual():
    assert row(0).passed
    assert not row(0, holds=False).passed


def test_a_nan_residual_fails():
    assert not row(math.nan, 1.0).passed


def test_an_exact_residual_is_compared_before_it_becomes_a_float():
    tiny = Fraction(1, 10**400)
    assert float(tiny) == 0.0
    check = row(tiny)
    assert not check.passed
    assert check.to_dict()["residual"] == 0.0 and check.to_dict()["status"] == "fail"


def test_status_is_not_an_argument():
    with pytest.raises(TypeError):
        Check("law", 1.0, 0.0, "a = b", passed=True)


def test_report_rows_are_checks_and_decide_the_exit_code():
    report = Report("verify", {})
    assert report.add("a", 0, 0, "a = a").passed
    assert report.exit_code == 0
    report.add("b", residual=0, tolerance=0, relation="b = b", holds=False)
    assert report.exit_code == 1
    assert report.summary_lines()[-1] == "1/2 checks passed"
