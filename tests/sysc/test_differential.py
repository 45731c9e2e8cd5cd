"""``simulate()`` against the per-sample tick loop it replaced.

The engine replays each core's work queue in closed form between
abnormal-beat arrivals; ``reference_engine.simulate`` steps every
sample.  Both must report the same run: every float within 1e-12
relative (the replay sums in a different order), every integer and
the operating point equal.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import rp_class, three_lead_mf, three_lead_mmd
from repro.apps.mapping import MappingError
from repro.gen.explorer import EXPLORE_ABNORMAL_RATIO, repair_app
from repro.gen.generator import app_from_token, suite_tokens
from repro.oracle import sample_candidates
from repro.search.space import plan_from_candidate, slot_phases
from repro.sysc.engine import BeatEvent, Mode, simulate, uniform_schedule

from .reference_engine import simulate as reference_simulate

REL = 1e-12


def _close(new: float, old: float) -> bool:
    return math.isclose(new, old, rel_tol=REL, abs_tol=0.0)


def assert_same_run(new, old):
    """Every float within ``REL`` relative; the rest exactly equal."""
    assert new.mode is old.mode
    assert new.mapping == old.mapping
    assert new.operating_point == old.operating_point
    assert new.required_mhz == old.required_mhz
    assert new.duration_s == old.duration_s
    for field in dataclasses.fields(old.activity):
        a = getattr(new.activity, field.name)
        b = getattr(old.activity, field.name)
        if isinstance(b, int):
            assert a == b, field.name
        else:
            assert _close(a, b), (field.name, a, b)
    assert new.power.operating_point == old.power.operating_point
    assert new.power.duration_s == old.power.duration_s
    assert list(new.power.categories) == list(old.power.categories)
    for name, value in old.power.categories.items():
        assert _close(new.power.categories[name], value), (name,)
    for name in ("im_broadcast_fraction", "dm_broadcast_fraction",
                 "runtime_overhead", "max_latency_s"):
        a, b = getattr(new, name), getattr(old, name)
        assert _close(a, b), (name, a, b)


def _both(app, mode, schedule, duration_s, **kwargs):
    new = simulate(app, mode, schedule, duration_s=duration_s, **kwargs)
    old = reference_simulate(app, mode, schedule, duration_s=duration_s,
                             **kwargs)
    return new, old


# ---------------------------------------------------------------------------
# The paper's three apps over the Fig. 7 grid
# ---------------------------------------------------------------------------

_PAPER_APPS = {
    "3L-MF": lambda ratio: three_lead_mf(),
    "3L-MMD": lambda ratio: three_lead_mmd(),
    "RP-CLASS": rp_class,
}


@pytest.mark.parametrize("bpm", (48, 72, 140))
@pytest.mark.parametrize("ratio", (0.0, 0.05, 0.2, 0.5, 1.0))
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(_PAPER_APPS))
def test_paper_apps_match_tick_loop(name, mode, ratio, bpm):
    app = _PAPER_APPS[name](ratio)
    duration = 20.0
    schedule = uniform_schedule(duration, app.fs, bpm=bpm,
                                abnormal_ratio=ratio)
    assert_same_run(*_both(app, mode, schedule, duration))


# ---------------------------------------------------------------------------
# Two generated 12-app suites
# ---------------------------------------------------------------------------

_SUITE = [token for seed in (7, 2014) for token in suite_tokens(seed, 12)]


@pytest.mark.parametrize("token", _SUITE)
def test_generated_apps_match_tick_loop(token):
    app, _ = repair_app(app_from_token(token), 8)
    duration = 10.0
    schedule = uniform_schedule(duration, app.fs,
                                abnormal_ratio=EXPLORE_ABNORMAL_RATIO)
    compared = 0
    for mode in Mode:
        try:
            new, old = _both(app, mode, schedule, duration)
        except MappingError:
            continue  # no default placement fits this app
        assert_same_run(new, old)
        compared += 1
    assert compared >= 1  # single-core always maps


# ---------------------------------------------------------------------------
# Edge cases: arbitrary schedules, raised floors, coalesced placements
# ---------------------------------------------------------------------------

def _coalesced_plans(app):
    """Sampled search placements that share a core between phases."""
    phases = slot_phases(app)
    plans = []
    for candidate in sample_candidates(app, samples=16, seed=1):
        hosted: dict[int, set[str]] = {}
        for phase, core in zip(phases, candidate.cores):
            hosted.setdefault(core, set()).add(phase)
        if any(len(names) > 1 for names in hosted.values()):
            plans.append(plan_from_candidate(app, candidate))
    return plans


#: ``(app, mode, mapping)`` configurations: every app in every mode
#: on its default placement, plus coalesced multi-core placements.
_CONFIGS = [
    (app, mode, None)
    for app in (three_lead_mf(), three_lead_mmd(), rp_class(0.2))
    for mode in Mode
] + [
    (app, mode, plan)
    for app in (three_lead_mmd(), rp_class(0.2))
    for plan in _coalesced_plans(app)[:2]
    for mode in (Mode.MULTI_CORE, Mode.MULTI_CORE_NO_SYNC)
]


def test_edge_configs_include_coalesced_placements():
    coalesced = [plan for _, _, plan in _CONFIGS if plan is not None]
    assert coalesced
    for plan in coalesced:
        assert plan.active_cores < len(plan.assignments)


#: Several abnormal beats on one tick, beats at 0 and at ``ticks - 1``
#: (RP-CLASS still has a backlog queued when the run ends), negative
#: and late samples.
_CROWDED = (400, [
    BeatEvent(sample=0, abnormal=True),
    BeatEvent(sample=0, abnormal=True),
    BeatEvent(sample=150, abnormal=True),
    BeatEvent(sample=150, abnormal=True),
    BeatEvent(sample=150, abnormal=False),
    BeatEvent(sample=150, abnormal=True),
    BeatEvent(sample=399, abnormal=True),
    BeatEvent(sample=400, abnormal=True),
    BeatEvent(sample=-3, abnormal=True),
])


@st.composite
def _schedules(draw):
    """A tick count and a schedule that strays outside ``[0, ticks)``."""
    ticks = draw(st.integers(min_value=1, max_value=400))
    special = st.sampled_from([0, ticks - 1, ticks, ticks + 7, -1, -50])
    sample = st.one_of(special, st.integers(min_value=-20,
                                            max_value=ticks + 20))
    events = draw(st.lists(
        st.builds(BeatEvent, sample=sample, abnormal=st.booleans()),
        max_size=24))
    return ticks, events


@settings(max_examples=120, deadline=None)
@given(config=st.sampled_from(range(len(_CONFIGS))),
       case=_schedules(),
       floor=st.sampled_from([1.0, 2.5, 6.0, 16.0]))
@example(config=6, floor=1.0, case=_CROWDED)
@example(config=7, floor=1.0, case=_CROWDED)
def test_edge_schedules_match_tick_loop(config, case, floor):
    app, mode, mapping = _CONFIGS[config]
    ticks, schedule = case
    duration = ticks / app.fs
    new, old = _both(app, mode, schedule, duration, floor_mhz=floor,
                     mapping=mapping)
    assert_same_run(new, old)
