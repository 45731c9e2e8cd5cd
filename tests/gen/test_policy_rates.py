"""Consistency regression tests for ``explorer.policy_rates``.

The per-policy reject/repair/screened fractions are the standing
metric the gen experiment and its artifact report; they must tie out
exactly against the record population they summarise — for every
built-in family and every built-in mapping policy, including the
screened status that only the policy screen produces.
"""

from collections import Counter

import pytest

from repro.gen.explorer import (
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_REPAIRED,
    STATUS_SCREENED,
    explore,
    policy_rates,
)
from repro.gen.generator import parse_app_token
from repro.gen.policies import POLICIES
from repro.gen.topology import FAMILY_ORDER

from .screen import screen_tokens

ALL_STATUSES = (STATUS_OK, STATUS_REPAIRED, STATUS_REJECTED,
                STATUS_SCREENED)

#: Every built-in family (via the suite) plus shaped adversarial
#: tokens that force the repair and reject paths.
TOKENS = [f"{family}:11:{i}" for i, family in enumerate(FAMILY_ORDER)] + [
    "random-dag:2014:4:depth=9+fanin=5+diamond=1+trig=1+reps=6",
    "random-dag:7:0:depth=12+reps=10",
    "random-dag:0:0:reps=12",
]


@pytest.fixture(scope="module")
def records():
    evaluated = explore(TOKENS, policies=tuple(sorted(POLICIES)),
                        duration_s=0.5)
    screened = screen_tokens(
        TOKENS, policies=("paper", "balanced", "single-core"),
        duration_s=0.5)
    return evaluated + screened


def test_population_exercises_every_family_and_status(records):
    assert {parse_app_token(r.token)[0] for r in records} == \
        set(FAMILY_ORDER)
    assert {r.policy for r in records} == set(POLICIES)
    assert {r.status for r in records} == set(ALL_STATUSES)


def test_rates_tie_out_against_record_statuses(records):
    rates = policy_rates(records)
    assert set(rates) == {r.policy for r in records}
    for policy, entry in rates.items():
        mine = [r for r in records if r.policy == policy]
        counts = Counter(r.status for r in mine)
        assert entry["points"] == len(mine)
        for status in ALL_STATUSES:
            assert entry[status] == counts[status], (policy, status)
        assert sum(entry[s] for s in ALL_STATUSES) == entry["points"]
        assert entry["replicas_trimmed"] == \
            sum(r.repairs for r in mine)
        assert entry["repair_rate"] == \
            entry[STATUS_REPAIRED] / entry["points"]
        assert entry["reject_rate"] == \
            entry[STATUS_REJECTED] / entry["points"]


def test_rates_per_policy_sum_to_total_population(records):
    rates = policy_rates(records)
    assert sum(e["points"] for e in rates.values()) == len(records)
    for status in ALL_STATUSES:
        assert sum(e[status] for e in rates.values()) == \
            sum(1 for r in records if r.status == status)


def test_rates_of_empty_population_is_empty():
    assert policy_rates([]) == {}
