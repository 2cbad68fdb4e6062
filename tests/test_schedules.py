import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scorefdr as sf
from scorefdr import ELond, Schedule, weight_at
from scorefdr.schedules import RAI_WEIGHT_MIN


def test_geometric_examples():
    g = Schedule.geometric(0.5)
    assert weight_at(g, 1, 0) == 0.5
    assert weight_at(g, 3, 0) == 0.125
    assert weight_at(Schedule.constant(0.05), 100, 0) == 0.05


def test_geometric_partial_sum_converges():
    for q in (0.3, 0.5, 0.9):
        g = Schedule.geometric(q)
        partial = sum(weight_at(g, t, 0) for t in range(1, 61))
        assert partial <= 1.0
        if q**60 > 1e-13:  # tail still representable at double precision
            assert partial < 1.0
        assert partial == pytest.approx(1.0 - q**60, abs=1e-12)


def test_gamma_rejects_rai():
    with pytest.raises(ValueError, match="summable"):
        ELond(gamma=Schedule.rai(0.05, 0.5, 0.5))


def test_gamma_rejects_bad_t():
    with pytest.raises(ValueError):
        weight_at(Schedule.geometric(0.5), 0, 0)


@pytest.mark.parametrize("t", [0, None, "3", True, 2.5, math.nan, math.inf])
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
    rai = Schedule.rai(0.05, 0.5, 0.5)
    assert weight_at(rai, 2, 0) == pytest.approx(0.075, abs=1e-15)
    assert weight_at(rai, 2, 1) == pytest.approx(0.025, abs=1e-15)
    # phi = psi with balanced counts cancels exactly
    assert weight_at(rai, 3, 1) == 0.05


def test_rai_balanced_returns_base_exactly():
    for rejections in (1, 3, 7):
        assert weight_at(Schedule.rai(0.05, 0.4, 0.4), 2 * rejections + 1, rejections) == 0.05


def test_rai_nonincreasing_in_rejections():
    rai = Schedule.rai(0.05, 0.5, 0.5)
    for t in (1, 5, 20):
        values = [weight_at(rai, t + 1, r) for r in range(t + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_rai_clamped_to_unit_interval():
    # extreme psi drives the raw recurrence negative; the clamp holds it in
    lo = weight_at(Schedule.rai(0.01, 0.01, 0.99), 201, 200)
    assert lo == RAI_WEIGHT_MIN
    hi = weight_at(Schedule.rai(0.9, 0.99, 0.01), 401, 0)
    assert hi == 1.0 - RAI_WEIGHT_MIN


def test_rai_rejects_inconsistent_counts():
    for sched in (Schedule.constant(0.05), Schedule.rai(0.05, 0.5, 0.5)):
        with pytest.raises(ValueError, match="rejections"):
            weight_at(sched, 3, 3)
        with pytest.raises(ValueError, match="rejections"):
            weight_at(sched, 1, -1)


def test_weight_at_matches_rai_indexing():
    sched = Schedule.rai(0.05, 0.5, 0.5)
    assert weight_at(sched, 1, 0) == 0.05
    # step t + 1 after t steps with R rejections, by the module's displayed sums:
    # omega1 + omega1 * (sum_{j<=t-R} phi**j - sum_{j<=R} psi**j)
    for t, rejections in ((1, 0), (1, 1), (9, 4), (12, 3)):
        up = sum(0.5**j for j in range(1, t - rejections + 1))
        down = sum(0.5**j for j in range(1, rejections + 1))
        assert weight_at(sched, t + 1, rejections) == pytest.approx(0.05 + 0.05 * (up - down),
                                                                    abs=1e-15)


def test_bound_formula_matches_public_functions():
    # The engine's per-step evaluator against weight_at, which adds the
    # argument checks.
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


# -- the kernel's tables -------------------------------------------------------

# capped at 0.999, so that a geometric table stays under a million entries
UNIT_OPEN = st.floats(0.0, 0.999, exclude_min=True)
PINNED = (0.01, 0.5, 0.9, 0.999)
PARAMETER = st.one_of(st.sampled_from(PINNED), UNIT_OPEN)
TABULATED = st.one_of(
    PARAMETER.map(Schedule.geometric),
    st.tuples(PARAMETER, PARAMETER, PARAMETER).map(lambda p: Schedule.rai(*p)),
)


def _stop_bound(schedule):
    """An upper bound on the index where each list of the schedule's table
    stops: the first 0.0 of ``(1 - q) * q**k``, or the first
    ``1.0 - r**k == 1.0`` over rai's phi and psi."""
    if schedule.kind == "geometric":
        q = schedule.params[0]
        return math.ceil((1075 * math.log(2.0) + math.log(1.0 - q)) / -math.log(q)) + 1
    return max(math.ceil(54 * math.log(2.0) / -math.log(r)) for r in schedule.params[1:]) + 1


@settings(max_examples=60, deadline=None)
@given(schedule=TABULATED, data=st.data())
@example(schedule=Schedule.geometric(0.999), data=None)
@example(schedule=Schedule.rai(0.999, 0.999, 0.999), data=None)
@example(schedule=Schedule.rai(1e-7, 0.5, 0.01), data=None)
@example(schedule=Schedule.rai(0.05, 0.9, 0.5), data=None)
@example(schedule=Schedule.geometric(0.01), data=None)
def test_every_table_read_is_weight_at(schedule, data):
    # Both slots of an e-saffron procedure read ``schedule``: the kernel holds
    # lambda in the state as read, and with fdp_hat at 0 it forms the budget
    # omega_t * (1 - lambda_t) * (R + 1) * alpha from omega.
    proc = sf.ESaffron(alpha=0.05, omega=schedule, lam=schedule)
    bound = 2 * _stop_bound(schedule)
    if data is None:  # the pinned cases: both ends, either side of every stop
        counts = [(0, 0), (1, 0), (1, 1), (bound, 0), (bound, bound // 2), (bound, bound),
                  (bound // 2, bound // 4), (bound // 4, 0), (2, 1), (3, 3)]
    else:
        t = st.integers(0, bound)
        counts = data.draw(st.lists(t.flatmap(lambda t: st.tuples(st.just(t), st.integers(0, t))),
                                    min_size=1, max_size=20), label="(t, R)")
    for t, rejections in counts:
        proc._state = (t, rejections, 0.05, 0.0, 0.0, 0.5, True)
        proc._run(sf.procedures._NO_EVIDENCE, ())
        value = weight_at(schedule, t + 1, rejections)
        lam = proc._state[5]
        assert lam.hex() == value.hex(), (t, rejections)
        budget = value * (1.0 - value) * (rejections + 1.0) * 0.05
        assert proc.next_alpha().hex() == budget.hex(), (t, rejections)


def test_terms_are_computed_once_not_per_step(monkeypatch):
    X = np.geomspace(0.1, 1e4, 20_000)
    sums = []
    monkeypatch.setattr(sf.schedules, "_sums",
                        lambda r, k, _sums=sf.schedules._sums: sums.append(k) or _sums(r, k))
    sf.ScoreLord(omega=Schedule.rai(0.05, 0.5, 0.5)).fit(X)
    # k = 0..54 for phi and for psi, each once: 54 + 54 closed-form sums past k = 0
    assert sorted(sums) == sorted(2 * list(range(55)))

    steps = []
    geometric = sf.schedules.KINDS["geometric"]
    monkeypatch.setitem(sf.schedules.KINDS, "geometric", geometric._replace(
        formula=lambda *args: steps.append(args[-2]) or geometric.formula(*args)))
    sf.ELond(gamma=Schedule.geometric(0.5)).fit(X)
    # (1 - q) * q**(t-1) from t = 1 to t = 1075, its first 0.0, each once
    assert steps == list(range(1, 1076))


def test_tables_belong_to_one_procedure_and_outlive_reset():
    first, second = sf.ELond(), sf.ELond()  # both read the shared DEFAULT_GAMMA
    table = first._rule[6]
    assert table is not second._rule[6]
    first.fit(np.ones(30))
    first.reset()
    assert first._rule[6] is table
    first.set_params(gamma=Schedule.geometric(0.5))  # an equal schedule, another object
    assert first._rule[6] is not table
    assert pickle.loads(pickle.dumps(first))._rule[6] is not first._rule[6]
    assert "_rule" not in first.__getstate__()


@pytest.mark.parametrize("name, old, new", [
    ("omega", Schedule.rai(0.05, 0.5, 0.5), Schedule.rai(0.1, 0.9, 0.3)),
    ("omega", Schedule.geometric(0.5), Schedule.rai(0.1, 0.9, 0.3)),
    ("lam", Schedule.geometric(0.3), Schedule.geometric(0.9)),
])
def test_a_new_schedule_is_read_from_a_new_table(name, old, new):
    X = np.geomspace(0.1, 1e4, 500)
    proc = sf.ScoreSaffron(**{name: old}).fit(X)
    proc.set_params(**{name: new})
    refit, fresh = proc.fit(X).trajectory(), sf.ScoreSaffron(**{name: new}).fit(X).trajectory()
    for field in ("alpha", "decision", "cost", "fdp_hat"):
        assert getattr(refit, field).tobytes() == getattr(fresh, field).tobytes(), field
