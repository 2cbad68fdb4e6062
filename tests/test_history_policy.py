"""The kernel's history policy: a run that records only its decisions.

``replicate()`` fits every replicate but the first under the "decisions"
policy.  It must decide exactly as a run that records every column, warn
the same, and leave the views of the columns it did not keep refusing by
name until the next ``fit`` or ``reset``.
"""

import re
import warnings

import numpy as np
import pytest

import scorefdr as sf
from helpers import build

SCHEDULE_KINDS = {
    # gamma must be summable, so the LOND rules read a geometric one under every kind
    "constant": (sf.Schedule.geometric(0.5), sf.Schedule.constant(0.05)),
    "geometric": (sf.Schedule.geometric(0.5), sf.Schedule.geometric(0.5)),
    "rai": (sf.Schedule.geometric(0.5), sf.Schedule.rai(0.05, 0.5, 0.5)),
}

#: The rules whose ``alpha_t`` the spiky stream drives past 1.
REACH_ONE = {("score-lord", "constant"), ("score-plus-lord", "constant")}


def _streams(pid):
    """Evidence of ``pid``'s kind from every generator, plus a spiky stream
    that drives ``alpha_t`` past 1 for the warning."""
    if pid.startswith("p-"):
        stream = sf.generate(sf.DgpConfig("ar1_gaussian", horizon=300, seed=2))
        yield "ar1_gaussian/p_conditional", stream.p_conditional
        yield "ar1_gaussian/p_marginal", stream.p_marginal
        yield "tiny", np.full(450, 1e-300)
        return
    for name in sf.simulation.DGP_NAMES:
        yield name, sf.generate(sf.DgpConfig(name, horizon=300, seed=2)).evalue
    yield "spikes", np.full(450, 1e9)


def _recorded(run):
    """``run()``'s result and the warnings it gave, as comparable tuples."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        proc = run()
    return proc, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _fit(pid, kind, X, method):
    """``method`` of a fresh ``pid`` on ``X``; one call site, so warnings point alike."""
    gamma, schedule = SCHEDULE_KINDS[kind]
    return getattr(build(pid, gamma=gamma, omega=schedule, lam=schedule), method)(X)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("pid", sf.PROCEDURE_IDS)
def test_decisions_only_decides_and_warns_as_full_recording(pid, kind):
    warned = 0
    for name, X in _streams(pid):
        full, full_warnings = _recorded(lambda: _fit(pid, kind, X, "fit"))
        only, only_warnings = _recorded(lambda: _fit(pid, kind, X, "_fit_decisions"))
        assert only.decision_.dtype == full.decision_.dtype == bool
        assert only.decision_.tobytes() == full.decision_.tobytes(), name
        for view in ("rejections_", "rejections_before_"):
            got, want = getattr(only, view), getattr(full, view)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, view)
        assert (only.t_, only.n_rejections_) == (full.t_, full.n_rejections_) == (
            len(X), int(full.decision_.sum()))
        assert np.float64(only.next_alpha()).tobytes() == np.float64(full.next_alpha()).tobytes()
        assert only_warnings == full_warnings, name
        warned += bool(full_warnings)
    if (pid, kind) in REACH_ONE:
        assert warned, "no stream reached alpha_t >= 1"


NOT_KEPT = ("alpha_", "overshoot_", "cost_", "fdp_hat_", "wealth_", "trajectory()")


def _read(proc, view):
    return proc.trajectory() if view == "trajectory()" else getattr(proc, view)


@pytest.mark.parametrize("pid", ["e-lond", "score-lord", "p-saffron"])
@pytest.mark.parametrize("view", NOT_KEPT)
def test_a_view_not_kept_refuses_by_name(pid, view):
    X = np.full(5, 0.5)
    proc = build(pid)._fit_decisions(X)
    message = (f"{view} is not available: this run recorded only the decisions; "
               "fit, partial_fit and step record every column")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _read(proc, view)
    assert proc.decision_.tolist() == build(pid).fit(X).decision_.tolist()
    # fit and reset restore the "all" policy
    assert len(_read(proc.fit(X), view)) == 5
    proc._fit_decisions(X)
    assert len(_read(proc.reset(), view)) == 0


def test_predict_decides_as_fit():
    X = sf.generate(sf.DgpConfig("gaussian_mixture", horizon=300, seed=5)).evalue
    proc = build("score-plus-saffron")
    assert proc.predict(X).tobytes() == build("score-plus-saffron").fit(X).decision_.tobytes()
    assert proc.t_ == 0 and len(proc.alpha_) == 0  # predict leaves the procedure unfitted


def test_replicate_runs_its_clone_on_decisions_only(monkeypatch):
    policies = []  # "all" or "decisions", per kernel run that took steps
    run = sf.OnlineProcedure._run

    def recording_run(self, values, labels):
        if values is not sf.procedures._NO_EVIDENCE:
            policies.append("all" if self._history[0] is not None else "decisions")
        return run(self, values, labels)

    monkeypatch.setattr(sf.OnlineProcedure, "_run", recording_run)
    proc = build("score-lord")
    sf.replicate(sf.DgpConfig("gaussian_mixture", horizon=50), proc, n_reps=3)
    assert policies == ["all", "decisions", "decisions"]
    assert len(proc.trajectory()) == 50  # replicate 0 is left fitted with every column
