import math
import re

import numpy as np
import pytest

from scorefdr import ELond, Schedule, gamma_at, rai_omega, weight_at
from scorefdr.schedules import RAI_WEIGHT_MIN


def test_geometric_examples():
    g = Schedule.geometric(0.5)
    assert gamma_at(g, 1) == 0.5
    assert gamma_at(g, 3) == 0.125
    assert gamma_at(Schedule.constant(0.05), 100) == 0.05


def test_geometric_partial_sum_converges():
    for q in (0.3, 0.5, 0.9):
        g = Schedule.geometric(q)
        partial = sum(gamma_at(g, t) for t in range(1, 61))
        assert partial <= 1.0
        if q**60 > 1e-13:  # tail still representable at double precision
            assert partial < 1.0
        assert partial == pytest.approx(1.0 - q**60, abs=1e-12)


def test_gamma_rejects_rai():
    with pytest.raises(ValueError, match="summable"):
        gamma_at(Schedule.rai(0.05, 0.5, 0.5), 1)
    with pytest.raises(ValueError, match="summable"):
        ELond(gamma=Schedule.rai(0.05, 0.5, 0.5))


def test_gamma_rejects_bad_t():
    with pytest.raises(ValueError):
        gamma_at(Schedule.geometric(0.5), 0)


@pytest.mark.parametrize("t", [None, "3", True, 2.5, math.nan, math.inf])
def test_weight_at_names_a_non_integer_t(t):
    with pytest.raises(ValueError, match=re.escape(f"t must be a positive integer, got {t!r}")):
        weight_at(Schedule.constant(0.5), t, 0)


def test_weight_at_accepts_integral_t():
    rai = Schedule.rai(0.05, 0.5, 0.5)
    assert weight_at(rai, np.int64(4), 1) == weight_at(rai, 4.0, 1) == weight_at(rai, 4, 1)


@pytest.mark.parametrize("params", [("0.5",), (None,), (b"0.5",)])
def test_non_real_schedule_parameter_rejected(params):
    message = f"constant value must be in (0, 1), got {params[0]!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Schedule("constant", params)


def test_rai_examples():
    assert rai_omega(0.05, 0.5, 0.5, 1, 0) == pytest.approx(0.075, abs=1e-15)
    assert rai_omega(0.05, 0.5, 0.5, 1, 1) == pytest.approx(0.025, abs=1e-15)
    # phi = psi with balanced counts cancels exactly
    assert rai_omega(0.05, 0.5, 0.5, 2, 1) == 0.05


def test_rai_balanced_returns_base_exactly():
    for rejections in (1, 3, 7):
        assert rai_omega(0.05, 0.4, 0.4, 2 * rejections, rejections) == 0.05


def test_rai_nonincreasing_in_rejections():
    for t in (1, 5, 20):
        values = [rai_omega(0.05, 0.5, 0.5, t, r) for r in range(t + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_rai_clamped_to_unit_interval():
    # extreme psi drives the raw recurrence negative; the clamp holds it in
    lo = rai_omega(0.01, 0.01, 0.99, 200, 200)
    assert lo == RAI_WEIGHT_MIN
    hi = rai_omega(0.9, 0.99, 0.01, 400, 0)
    assert hi == 1.0 - RAI_WEIGHT_MIN


def test_rai_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        rai_omega(0.05, 0.5, 0.5, 2, 3)
    for sched in (Schedule.constant(0.05), Schedule.rai(0.05, 0.5, 0.5)):
        with pytest.raises(ValueError, match="rejections"):
            weight_at(sched, 3, 3)
        with pytest.raises(ValueError, match="rejections"):
            weight_at(sched, 1, -1)


def test_weight_at_matches_rai_indexing():
    sched = Schedule.rai(0.05, 0.5, 0.5)
    assert weight_at(sched, 1, 0) == 0.05
    assert weight_at(sched, 2, 0) == rai_omega(0.05, 0.5, 0.5, 1, 0)
    assert weight_at(sched, 10, 4) == rai_omega(0.05, 0.5, 0.5, 9, 4)


def test_bound_formula_matches_public_functions():
    # The engine's per-step evaluator against gamma_at / weight_at, which
    # add argument checks and, for rai, the rai_omega step indexing.
    rng = np.random.default_rng(1)
    cases = [
        Schedule.constant(0.05),
        Schedule.geometric(0.37),
        Schedule.rai(0.05, 0.5, 0.5),
        Schedule.rai(0.2, 0.8, 0.3),
    ]
    for sched in cases:
        fast = sched.formula()
        for _ in range(50):
            t = int(rng.integers(1, 200))
            r = int(rng.integers(0, t))
            if sched.kind == "geometric":
                assert fast(t, r) == gamma_at(sched, t)
            else:
                assert fast(t, r) == weight_at(sched, t, r)


def test_parse_round_trip_and_errors():
    for text in ("constant,0.05", "geometric,0.5", "rai,0.05,0.5,0.5"):
        sched = Schedule.parse(text)
        assert Schedule.parse(sched.spec()) == sched
    with pytest.raises(ValueError, match="kind must be one of"):
        Schedule.parse("harmonic,0.1")
    with pytest.raises(ValueError, match="parameter"):
        Schedule.parse("rai,0.05")
    with pytest.raises(ValueError):
        Schedule.parse("constant,1.5")
    with pytest.raises(ValueError, match="^constant value must be a number, got 'abc'$"):
        Schedule.parse("constant,abc")


@pytest.mark.parametrize("text, message", [
    ("constant,0.0_5", "constant value must be a number, got '0.0_5'"),
    ("rai,0.05,x,0.5", "rai phi must be a number, got 'x'"),
    ("geometric,1_0", "geometric ratio must be a number, got '1_0'"),
])
def test_parse_names_the_parameter(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Schedule.parse(text)


def test_fixed_is_the_value_of_a_constant_kind_only():
    assert Schedule.constant(0.05).fixed() == 0.05
    assert Schedule.geometric(0.5).fixed() is None
    assert Schedule.rai(0.05, 0.5, 0.5).fixed() is None
