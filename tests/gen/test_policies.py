"""Tests for the mapping policies of the explorer.

The ``search-greedy`` and ``search-anneal`` placements of the seed-7
six-app suite at 8 cores are pinned in ``golden/`` (the ``gen``
golden runs only the fixed policies).  Their search seeds derive from
``app_fingerprint``, so a change to the fingerprint's bytes moves
them.  Regenerate (only for a change that is meant to move a
placement)::

    PYTHONPATH=src:. python -c "from tests.gen.test_policies \
import write_golden; write_golden()"
"""

import json
from pathlib import Path

import pytest

from repro.apps import three_lead_mf, three_lead_mmd
from repro.apps.mapping import MappingError, map_multicore
from repro.apps.phases import (
    AppSpec,
    ChannelSpec,
    PhaseSpec,
    SectionSpec,
)
from repro.gen import (
    POLICIES,
    critical_path_weights,
    generate_app,
    get_policy,
    map_balanced,
    map_critical_path,
)
from repro.gen.generator import app_from_token, suite_tokens
from repro.isa.layout import IM_BANKS, IM_WORDS_PER_BANK
from repro.search.space import candidate_from_plan, candidate_to_mapping

GOLDEN = Path(__file__).parent / "golden" / "search_policies_seed7_n6.json"

#: The searched policies the golden pins.
SEARCH_POLICIES = ("search-greedy", "search-anneal")


def _phase(name, cycles, sections, replicas=1):
    return PhaseSpec(
        name=name,
        cycles_per_sample=cycles,
        dm_access_rate=0.3,
        sections=tuple(SectionSpec(*section) for section in sections),
        replicas=replicas,
    )


def _chain_app():
    """a -> b -> c with c the heaviest tail."""
    app = AppSpec(
        name="CHAIN",
        fs=250.0,
        phases=[
            _phase("a", 1000.0, [("a0", 1000)]),
            _phase("b", 500.0, [("b0", 1000)]),
            _phase("c", 3000.0, [("c0", 1000)]),
        ],
        channels=[
            ChannelSpec(producers=("a",), consumer="b"),
            ChannelSpec(producers=("b",), consumer="c"),
        ],
    )
    app.validate()
    return app


def test_registry_has_all_policies():
    assert list(POLICIES) == [
        "paper", "single-core", "balanced", "critical-path",
        "search-greedy", "search-anneal",
    ]
    assert POLICIES["single-core"].multicore is False
    assert POLICIES["search-anneal"].multicore is True
    with pytest.raises(ValueError):
        get_policy("nope")


def test_policies_agree_with_paper_on_table1_apps():
    """On the paper's own benchmarks all multi-core policies place."""
    for app in (three_lead_mf(), three_lead_mmd()):
        paper = map_multicore(app)
        for name in ("balanced", "critical-path"):
            plan = get_policy(name).map(app)
            assert plan.multicore
            assert plan.active_cores == paper.active_cores
            assert plan.sync_points_used == paper.sync_points_used
            assert set(plan.section_banks) == set(paper.section_banks)


def test_critical_path_weights_follow_downstream_chain():
    weights = critical_path_weights(_chain_app())
    assert weights["c"] == 3000.0
    assert weights["b"] == 3500.0
    assert weights["a"] == 4500.0


def test_critical_path_orders_heaviest_chain_first():
    plan = map_critical_path(_chain_app())
    # 'a' heads the heaviest chain: core 0 and the runtime's bank 0.
    assert plan.assignments[0].phase == "a"
    assert plan.section_banks["a0"] == 0


def test_balanced_places_section_heavy_apps_paper_rejects():
    # Nine distinct non-head sections: the paper policy runs out of
    # dedicated banks, the packing heuristics do not.
    phases = [_phase("head", 500.0, [("head0", 800)])]
    for index in range(3):
        phases.append(_phase(
            f"p{index}", 500.0,
            [(f"p{index}_s{j}", 900) for j in range(3)]))
    app = AppSpec(name="WIDE", fs=250.0, phases=phases)
    app.validate()
    with pytest.raises(MappingError):
        map_multicore(app)
    for mapper in (map_balanced, map_critical_path):
        plan = mapper(app)
        assert set(plan.section_banks) == \
            {s.name for phase in app.phases for s in phase.sections}
        fills = [0] * IM_BANKS
        fills[0] = app.runtime_words
        for phase in app.phases:
            for section in phase.sections:
                fills[plan.section_banks[section.name]] += section.words
        assert max(fills) <= IM_WORDS_PER_BANK


def test_balanced_levels_bank_fill():
    app = _chain_app()
    plan = map_balanced(app)
    # Three 1000-word sections over 8 banks: load-levelling puts each
    # in its own (least-filled) bank rather than stacking them.
    banks = [plan.section_banks[name] for name in ("a0", "b0", "c0")]
    assert len(set(banks)) == 3


def test_policies_reject_genuinely_oversized_apps():
    huge = AppSpec(
        name="HUGE", fs=250.0,
        phases=[_phase(f"p{i}", 100.0, [(f"s{i}", 4000)])
                for i in range(10)])
    huge.validate()
    for name in ("paper", "balanced", "critical-path"):
        with pytest.raises(MappingError):
            get_policy(name).map(huge)


def test_policies_are_deterministic_on_generated_apps():
    app = generate_app("random-dag", seed=31, index=4)
    for name in ("balanced", "critical-path"):
        first = get_policy(name).map(app)
        second = get_policy(name).map(app)
        assert first.section_banks == second.section_banks
        assert first.assignments == second.assignments


def search_placements() -> dict:
    """Each searched policy's placement of the seed-7 six-app suite at
    8 cores, by app token, as JSON-ready mappings."""
    return {
        token: {
            name: candidate_to_mapping(candidate_from_plan(
                get_policy(name).map(app_from_token(token), 8)))
            for name in SEARCH_POLICIES
        }
        for token in suite_tokens(7, 6)
    }


def write_golden() -> None:
    GOLDEN.write_text(json.dumps(search_placements(), indent=2,
                                 sort_keys=True) + "\n", encoding="utf-8")


def test_search_policy_placements_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert search_placements() == golden
