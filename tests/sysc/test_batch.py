"""``simulate_batch`` against the scalar ``simulate()`` it generalises.

A batch runs many beat schedules of one app and configuration in one
call.  Each row must equal, ``==`` on the whole ``SimulationResult``,
the scalar call of its schedule, and stay within the tick-loop
oracle's 1e-12; a batch must count what its rows count as scalar
calls.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.apps.mapping import MappingError, map_multicore, map_singlecore
from repro.gen.explorer import repair_app
from repro.gen.generator import app_from_token, suite_tokens
from repro.gen.policies import get_policy
from repro.sysc.engine import (
    BeatEvent,
    Mode,
    schedule_signature,
    simulate,
    simulate_batch,
    uniform_schedule,
    uniform_signature,
)

from .reference_engine import simulate as reference_simulate
from .test_differential import _CONFIGS, assert_same_run


def _maps(app, mode, mapping):
    """True if ``mapping`` (or the default placement) fits ``mode``."""
    if mapping is not None:
        return True
    try:
        if mode is Mode.SINGLE_CORE:
            map_singlecore(app)
        else:
            map_multicore(app, 8)
    except MappingError:
        return False
    return True


def _generated_configs():
    """Generated apps in every mode that places them, on the default
    placement and on the ``balanced`` policy's."""
    configs = []
    for token in suite_tokens(11, 6):
        app, _ = repair_app(app_from_token(token), 8)
        balanced = get_policy("balanced").map(app, 8)
        for mode in Mode:
            configs.append((app, mode, None))
            if mode is not Mode.SINGLE_CORE:
                configs.append((app, mode, balanced))
    return configs


#: Generated apps in the modes their placements fit.
_GENERATED = [config for config in _generated_configs() if _maps(*config)]

#: Paper apps in every mode, coalesced placements, generated apps.
_BATCH_CONFIGS = _CONFIGS + _GENERATED


def test_generated_configs_cover_every_mode_and_policy():
    assert {mode for _, mode, _ in _GENERATED} == set(Mode)
    assert any(plan is not None for _, _, plan in _GENERATED)
    assert any(plan is not None and plan.active_cores < len(plan.assignments)
               for _, _, plan in _CONFIGS)


@st.composite
def _batches(draw):
    """A tick count and 1–8 schedules straying outside ``[0, ticks)``."""
    ticks = draw(st.integers(min_value=1, max_value=400))
    special = st.sampled_from([0, ticks - 1, ticks, ticks + 5, -1])
    sample = st.one_of(special, st.integers(min_value=-10,
                                            max_value=ticks + 10))
    schedule = st.lists(
        st.builds(BeatEvent, sample=sample, abnormal=st.booleans()),
        max_size=10)
    return ticks, draw(st.lists(schedule, min_size=1, max_size=8))


def _abnormal(*samples):
    return [BeatEvent(sample=sample, abnormal=True) for sample in samples]


#: Rows with no abnormal beat, beats at 0 and at ``ticks - 1``, beats
#: beyond the run, and several beats on one tick.
_EDGE_ROWS = (400, [
    [],
    [BeatEvent(sample=30, abnormal=False)],
    _abnormal(0, 399),
    _abnormal(400, 420, -2),
    _abnormal(150, 150, 150, 7),
    _abnormal(0, 0, 399, 399, 399),
])


def _scalar_rows(app, mode, schedules, duration, mapping):
    """Each schedule's scalar run, or the first error one raises."""
    rows = []
    for schedule in schedules:
        try:
            rows.append(simulate(app, mode, schedule, duration_s=duration,
                                 mapping=mapping))
        except ValueError as exc:
            return rows, exc
    return rows, None


@settings(max_examples=150, deadline=None)
@given(config=st.sampled_from(range(len(_BATCH_CONFIGS))), case=_batches())
@example(config=0, case=_EDGE_ROWS)
@example(config=1, case=_EDGE_ROWS)
@example(config=2, case=_EDGE_ROWS)
@example(config=6, case=_EDGE_ROWS)
def test_batch_rows_equal_scalar_calls(config, case):
    app, mode, mapping = _BATCH_CONFIGS[config]
    ticks, schedules = case
    duration = ticks / app.fs
    signatures = [schedule_signature(schedule, ticks)
                  for schedule in schedules]
    with obs.collecting() as scalar_counts:
        rows, error = _scalar_rows(app, mode, schedules, duration, mapping)
    if error is not None:
        # Some row asks for a clock above the top grid voltage: the
        # batch refuses with the first such row's error.
        with pytest.raises(ValueError, match=re.escape(str(error))):
            simulate_batch(app, mode, signatures, duration_s=duration,
                           mapping=mapping)
        return
    with obs.collecting() as batch_counts:
        batch = simulate_batch(app, mode, signatures, duration_s=duration,
                               mapping=mapping)
    assert batch == rows
    assert batch_counts.counters == scalar_counts.counters
    for row, schedule in zip(batch, schedules):
        assert_same_run(row, reference_simulate(
            app, mode, schedule, duration_s=duration, mapping=mapping))


def test_batch_of_one_paper_app_schedule_grid():
    """Fig. 7's grid as one batch per (app, mode): every row equals
    its scalar call, as the paper experiments make them."""
    for app, mode, mapping in _CONFIGS[:9]:
        schedules = [uniform_schedule(20.0, app.fs, bpm=bpm,
                                      abnormal_ratio=ratio)
                     for bpm in (48, 72, 140)
                     for ratio in (0.0, 0.05, 0.2, 0.5, 1.0)]
        signatures = [schedule_signature(s, int(round(20.0 * app.fs)))
                      for s in schedules]
        batch = simulate_batch(app, mode, signatures, duration_s=20.0,
                               mapping=mapping)
        assert batch == [simulate(app, mode, s, duration_s=20.0,
                                  mapping=mapping) for s in schedules]


@pytest.mark.parametrize("duration", (0.004, 2.0, 10.0, 10.0021))
@pytest.mark.parametrize("ratio", (0.0, 0.15, 0.5, 1.0))
@pytest.mark.parametrize("bpm", (37.3, 72.0, 151.9))
def test_uniform_signature_is_the_schedules_signature(duration, ratio, bpm):
    schedule = uniform_schedule(duration, 250.0, bpm=bpm,
                                abnormal_ratio=ratio)
    assert uniform_signature(duration, 250.0, bpm, ratio) == \
        schedule_signature(schedule, int(round(duration * 250.0)))


def test_signature_must_span_the_run():
    app, mode, mapping = _CONFIGS[0]
    signature = schedule_signature([], 2500)
    with pytest.raises(ValueError, match="spans 2500 ticks"):
        simulate_batch(app, mode, [signature], duration_s=4.0,
                       mapping=mapping)


def test_empty_batch_counts_nothing():
    app, mode, mapping = _CONFIGS[0]
    with obs.collecting() as registry:
        assert simulate_batch(app, mode, [], duration_s=4.0,
                              mapping=mapping) == []
    assert registry.counters == {}
