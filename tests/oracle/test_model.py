"""The vectorised analytic model against the exact cost oracle.

The model claims to be a closed-form reduction of multi-core
``simulate()``, exact up to float associativity — so every test here
compares populations scored in one batched call against per-candidate
``simulate()`` and demands agreement at float-noise level (1e-9
relative, orders of magnitude above the observed ~1e-15).
"""

import pytest

from repro.apps import rp_class, three_lead_mf, three_lead_mmd
from repro.gen.explorer import repair_app
from repro.gen.generator import app_from_token, suite_tokens
from repro.oracle import AnalyticModel, sample_candidates, score_population
from repro.search.cost import ORACLE_KINDS, get_oracle
from repro.search.space import plan_from_candidate

#: Built-in benchmarks plus a generated suite, one app per topology
#: family (the fork-join and RP-CLASS entries exercise lock-step
#: replicas and triggered phases — the two terms that are not a plain
#: per-slot sum).
_APPS = (
    three_lead_mf(),
    three_lead_mmd(),
    rp_class(),
    *(app_from_token(token) for token in suite_tokens(seed=2014, count=4)),
)


def _repaired(app):
    repaired, _ = repair_app(app, 8)
    return repaired


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize(
    "app", _APPS, ids=[app.name for app in _APPS])
def test_population_scores_match_exact_oracle(app, kind):
    app = _repaired(app)
    candidates = sample_candidates(app, samples=6, seed=3)
    assert candidates
    scores = score_population(app, candidates, kind=kind,
                              duration_s=1.0)
    oracle = get_oracle(kind, 1.0)
    for index, candidate in enumerate(candidates):
        plan = plan_from_candidate(app, candidate)
        exact_cost, exact_metrics = oracle.evaluate(app, plan, 8)
        assert float(scores.cost[index]) == \
            pytest.approx(exact_cost, rel=1e-9)
        analytic = scores.metrics(index)
        assert set(analytic) == set(exact_metrics)
        for key, value in exact_metrics.items():
            assert analytic[key] == pytest.approx(value, rel=1e-9), key


def test_sample_candidates_deterministic_and_distinct():
    app = _repaired(three_lead_mmd())
    first = sample_candidates(app, samples=6, seed=9)
    second = sample_candidates(app, samples=6, seed=9)
    assert first == second
    assert len(set(first)) == len(first)
    assert len(first) <= 6


def test_metrics_integer_fields_are_python_ints():
    app = _repaired(three_lead_mf())
    candidates = sample_candidates(app, samples=2, seed=0)
    metrics = score_population(app, candidates,
                               duration_s=1.0).metrics(0)
    assert isinstance(metrics["active_cores"], int)
    assert isinstance(metrics["im_banks"], int)


def test_scoring_is_deterministic_across_calls():
    app = _repaired(three_lead_mmd())
    candidates = sample_candidates(app, samples=8, seed=5)
    first = score_population(app, candidates, duration_s=1.0)
    second = score_population(app, candidates, duration_s=1.0)
    assert first.cost.tolist() == second.cost.tolist()
    assert first.power_uw.tolist() == second.power_uw.tolist()


def test_batched_equals_singleton_scoring():
    """One 8-wide call == eight 1-wide calls, bit for bit."""
    app = _repaired(rp_class())
    candidates = sample_candidates(app, samples=8, seed=5)
    model = AnalyticModel(app, kind="power", duration_s=1.0)
    batched = model.score(candidates)
    for index, candidate in enumerate(candidates):
        assert model.score_one(candidate) == batched.cost[index]


def test_model_validates_inputs():
    app = _repaired(three_lead_mf())
    with pytest.raises(ValueError):
        AnalyticModel(app, kind="nope")
    with pytest.raises(ValueError):
        AnalyticModel(app, duration_s=0.0)
    model = AnalyticModel(app, duration_s=1.0)
    with pytest.raises(ValueError):
        model.score([])


def test_model_rejects_foreign_candidates():
    """Candidates of one app cannot score under another's model."""
    mf = _repaired(three_lead_mf())
    mmd = _repaired(three_lead_mmd())
    foreign = sample_candidates(mmd, samples=1, seed=0)
    model = AnalyticModel(mf, duration_s=1.0)
    with pytest.raises(ValueError):
        model.score(foreign)
