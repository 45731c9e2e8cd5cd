"""The array streaming pass against the per-member walk it replaced.

The two draw different random numbers from the same distributions,
so their results are compared statistically: over :data:`SEEDS`, each
tier's mean power and the mean-abs and RMS of its hop, effective and
free-running errors must have means within :data:`K` standard errors
of each other (the standard error of the difference, from the spread
across seeds of both paths).  The largest difference measured over
the three shapes is 1.8 standard errors.  Counts that no draw
touches — nodes, error samples, beacons sent — must be equal.
"""

import math
import statistics

import pytest

from repro.net import parse_hierarchy, run_streaming

from .reference_stream import reference_tiers

#: Fleet seeds both paths run.
SEEDS = range(1, 9)

#: Allowed gap between the paths' means, in standard errors.
K = 4.0

#: Statistics compared per tier.
STATISTICS = {
    "mean_power_uw": lambda tier: tier.mean_power_uw,
    **{
        f"{error}.{moment}": (
            lambda tier, error=error, moment=moment:
            getattr(getattr(tier, error), moment)
        )
        for error in ("hop_sync", "sync", "unsync")
        for moment in ("mean_abs_s", "rms_s")
    },
}


@pytest.mark.parametrize("token, duration", [
    # The issue's campus shape: FTSP gateways over RBS wards.
    ("tiers:ftsp@10x8~0.5/rbs@2x64:dense-ward", 4.0),
    # Brown-outs: Poisson resets on the leaf tier.
    ("tiers:ftsp@10x4/ftsp@2x16:intermittent-harvesting", 20.0),
    # An FTSP leaf tier regressing over up to 8 beacons.
    ("tiers:rbs@5x4/ftsp@1x16:drifting-wearables", 10.0),
])
def test_array_pass_matches_the_member_walk(token, duration):
    spec = parse_hierarchy(token)
    old = [reference_tiers(spec, seed, duration) for seed in SEEDS]
    new = [run_streaming(spec, duration_s=duration, seed=seed).tiers
           for seed in SEEDS]
    for walked, passed in zip(old, new):
        for a, b in zip(walked, passed):
            assert (a.nodes, a.sync.count, a.beacons_sent) == \
                (b.nodes, b.sync.count, b.beacons_sent)
    for index in range(len(spec.tiers)):
        for name, statistic in STATISTICS.items():
            a = [statistic(tiers[index]) for tiers in old]
            b = [statistic(tiers[index]) for tiers in new]
            gap = abs(statistics.mean(a) - statistics.mean(b))
            error = math.sqrt((statistics.variance(a)
                               + statistics.variance(b)) / len(SEEDS))
            assert gap <= K * error, (index, name, gap / error)
