"""The share pass against the per-subtree pass it replaced, bit for bit.

:func:`repro.net.streaming._simulate_share` runs a share of tier-0
subtrees as row blocks of one array pass per tier.  Every subtree's
per-tier states must equal, with ``==`` on every float, those of
:func:`reference_stream.reference_subtree`, which runs the same
subtree alone and binds each member with its own ``AppSource.bind``.
The shares come from :meth:`StreamingRunner.run` itself: one subtree
each, the whole fleet in one, or a whole-fleet share the pass cap
splits.
"""

import pytest

from repro.net import ERROR_SAMPLE_HZ, parse_hierarchy, streaming
from repro.net.streaming import run_streaming

from .reference_stream import reference_subtree

#: (hierarchy, duration s): presets, a 3-tier token with a ``none``
#: tier, leaf resets (some subtrees with, some without), mixed and
#: generated app sources (10-12 leaves at 3.5 s, so radio power sums
#: round and their order shows), no error sample (0.1 s) and no
#: beacon (0.4 s, before the first one at 0.5 s).
CASES = [
    ("ward-campus", 2.0),
    ("body-networks", 2.0),
    ("tiers:ftsp@5x4/none@2x3/rbs@1x2:dense-ward", 2.0),
    ("tiers:ftsp@5x6/rbs@1x2:intermittent-harvesting", 20.0),
    ("tiers:rbs@5x3/ftsp@1x12:mixed-clinic", 3.5),
    ("tiers:ftsp@5x3/rbs@1x10:generated-swarm", 3.5),
    ("tiers:ftsp@5x4/rbs@1x3:dense-ward", 0.1),
    ("tiers:ftsp@5x4/rbs@1x3:intermittent-harvesting", 0.4),
]

#: How a run cuts its subtrees: one per share, all in one share, or
#: all in one share cut into passes of two by the cap.
SHARES = ("one", "several", "split")

#: The unpatched share pass.
_SHARE = streaming._simulate_share


def _recorded_passes(monkeypatch, token, duration_s, shares):
    """``(payload, states)`` of every share a serial run executed."""
    spec = parse_hierarchy(token)
    calls = []

    def recording(payload):
        states = _SHARE(payload)
        calls.append((payload, states))
        return states

    monkeypatch.setattr(streaming, "_simulate_share", recording)
    if shares == "split":
        samples = max(int(duration_s * ERROR_SAMPLE_HZ), 1)
        cells = spec.subtree_nodes * samples
        monkeypatch.setattr(streaming, "PASS_CELLS", 2 * cells + 1)
    result = run_streaming(
        spec, duration_s=duration_s, seed=5,
        wave_size=1 if shares == "one" else None)
    assert result.completed
    return spec, calls


@pytest.mark.parametrize("shares", SHARES)
@pytest.mark.parametrize("token, duration_s", CASES)
def test_share_pass_equals_the_per_subtree_pass(
        monkeypatch, token, duration_s, shares):
    spec, calls = _recorded_passes(monkeypatch, token, duration_s, shares)
    seen = []
    for payload, states in calls:
        config, passes, context = payload
        share = [index for indices in passes for index in indices]
        seen += share
        expected = [reference_subtree((config, index, *context))
                    for index in share]
        assert states == expected
        sizes = [len(indices) for indices in passes]
        if shares == "one":
            assert sizes == [1]
        elif shares == "several":
            assert sizes == [spec.subtrees]
        else:
            assert len(sizes) > 1 and max(sizes) == 2
    assert seen == list(range(spec.subtrees))


def test_a_pass_mixes_subtrees_with_and_without_leaf_resets(monkeypatch):
    """The resets case stacks an ``inf``-padded leaf block beside
    subtrees whose leaves never reset."""
    token, duration_s = CASES[3]
    _, calls = _recorded_passes(monkeypatch, token, duration_s, "several")
    [(_, states)] = calls
    resets = [parts[-1].resets for parts in states]
    assert 0 in resets and len(set(resets)) > 2
