"""Built-in sweep campaigns.

:data:`SPECS` is the CLI-facing registry (``python -m repro.eval sweep
--spec <name>``); :data:`BENCH_SPECS` is the subset the benchmark
harness replays to emit ``BENCH_<name>.json`` artifacts (shorter
durations — the reproduced metrics are duration-invariant, which the
test suite pins separately).

The ``demo`` campaign is the canonical 3-axis example from the README:
benchmark x execution mode x simulated duration, 24 points.
"""

from __future__ import annotations

from ..eval.runconfig import FIG7_RATIOS
from ..gen.generator import suite_tokens
from .spec import SweepSpec, Value

#: Simulated seconds of the benchmark campaigns (mirrors the
#: pytest-benchmark harness's reduced duration).
BENCH_DURATION_S = 15.0

DEMO = SweepSpec(
    name="demo",
    runner="app",
    description="3-axis demo: benchmark x mode x duration (24 points)",
    axes=(
        ("app", ("3L-MF", "3L-MMD", "RP-CLASS")),
        ("mode", ("single-core", "multi-core")),
        ("duration_s", (120.0, 240.0, 360.0, 480.0)),
    ),
)

TABLE1 = SweepSpec(
    name="table1",
    runner="app",
    description="Table I grid: every benchmark, SC and MC",
    axes=(
        ("app", ("3L-MF", "3L-MMD", "RP-CLASS")),
        ("mode", ("single-core", "multi-core")),
    ),
    base=(("duration_s", BENCH_DURATION_S),),
)

FIG6 = SweepSpec(
    name="fig6",
    runner="app",
    description="Fig. 6 grid: every benchmark, all three configurations",
    axes=(
        ("app", ("3L-MF", "3L-MMD", "RP-CLASS")),
        ("mode", ("single-core", "multi-core-no-sync", "multi-core")),
    ),
    base=(("duration_s", BENCH_DURATION_S),),
)

FIG7 = SweepSpec(
    name="fig7",
    runner="app",
    description="Fig. 7 sweep: RP-CLASS pathological ratio, SC vs MC",
    axes=(
        ("ratio", FIG7_RATIOS),
        ("mode", ("single-core", "multi-core")),
    ),
    base=(("app", "RP-CLASS"), ("duration_s", BENCH_DURATION_S)),
)

VFS_FLOOR = SweepSpec(
    name="vfs-floor",
    runner="app",
    description="VFS sensitivity: system-clock floor x benchmark (MC)",
    axes=(
        ("app", ("3L-MF", "3L-MMD", "RP-CLASS")),
        ("floor_mhz", (1.0, 2.0, 3.3)),
    ),
    base=(("mode", "multi-core"), ("duration_s", 5.0)),
)

CORES = SweepSpec(
    name="cores",
    runner="app",
    description="platform width: cores provisioned x benchmark (MC)",
    axes=(
        ("app", ("3L-MF", "3L-MMD", "RP-CLASS")),
        ("num_cores", (6, 8, 12)),
    ),
    base=(("mode", "multi-core"), ("duration_s", 5.0)),
)

ABLATIONS = SweepSpec(
    name="ablations",
    runner="ablation",
    description="mechanism ablations ABL-1..4",
    axes=(("ablation", ("broadcast", "vfs", "sleep", "lockstep")),),
    base=(("duration_s", BENCH_DURATION_S),),
)

FLEET = SweepSpec(
    name="fleet",
    runner="fleet",
    description="fleet grid: scenario preset x sync protocol",
    axes=(
        (
            "scenario",
            (
                "dense-ward",
                "drifting-wearables",
                "intermittent-harvesting",
            ),
        ),
        ("protocol", ("none", "rbs", "ftsp")),
    ),
    base=(("nodes", 8), ("duration_s", 4.0), ("seed", 2014)),
)

FLEET_GEN = SweepSpec(
    name="fleet-gen",
    runner="fleet-gen",
    description="heterogeneous generated-app fleets: policy x protocol",
    axes=(
        ("policy", ("paper", "balanced", "critical-path")),
        ("protocol", ("none", "rbs", "ftsp")),
    ),
    base=(
        ("scenario", "dense-ward"),
        ("suite_seed", 2014),
        ("suite_count", 8),
        ("nodes", 6),
        ("duration_s", 4.0),
        ("seed", 2014),
    ),
)

FLEET_TIERS = SweepSpec(
    name="fleet-tiers",
    runner="fleet-tiers",
    description="hierarchical fleets: preset and token deployments",
    axes=(
        (
            "tiers",
            (
                "ward-campus",
                "body-networks",
                "tiers:ftsp@10x4/rbs@2x6:dense-ward",
                "tiers:none@5x4/rbs@2x6:dense-ward",
            ),
        ),
    ),
    base=(("duration_s", 4.0), ("seed", 2014)),
)

PLATFORM = SweepSpec(
    name="platform",
    runner="platform",
    description="cycle-accurate spin kernel across core counts",
    axes=(("cores", (1, 2, 4, 8)),),
    base=(("cycles", 20_000),),
)

PLATFORM_ADC = SweepSpec(
    name="platform-adc",
    runner="platform-adc",
    description="ADC-driven running maximum over 1 s of 3-lead ECG",
    axes=(("period_cycles", (1000, 4000)),),
)


def generated_app_axis(
    seed: int,
    count: int,
    families: tuple[str, ...] | None = None,
) -> tuple[str, tuple[Value, ...]]:
    """A ``gen_app`` sweep axis over one generated suite.

    Each value is a regeneration token (``"family:seed:index"``), so
    the axis is plain JSON scalars: specs carrying it serialise,
    cache and shard exactly like every other campaign.
    """
    return ("gen_app", tuple(suite_tokens(seed, count, families)))


GEN = SweepSpec(
    name="gen",
    runner="gen",
    description="generated synthetic workloads x mapping policy",
    axes=(
        generated_app_axis(seed=2014, count=6),
        ("policy", ("paper", "balanced", "critical-path")),
    ),
    base=(("duration_s", 5.0), ("num_cores", 8)),
)

#: Adversarial shaped tokens the cover campaign sweeps: one per
#: shape knob plus a kitchen-sink combination and an unshaped
#: control.  Each rides the cache/shard machinery as a plain string.
ADVERSARIAL_TOKENS: tuple[str, ...] = (
    "random-dag:2014:0:depth=10",
    "random-dag:2014:1:fanin=6",
    "random-dag:2014:2:diamond=1",
    "random-dag:2014:3:trig=1",
    "random-dag:2014:4:depth=9+fanin=5+diamond=1+trig=1+reps=6",
    "random-dag:2014:5",
)

COVER = SweepSpec(
    name="cover",
    runner="cover",
    description="adversarial shaped workloads x mapping policy, "
                "with coverage-bin classification",
    axes=(
        ("gen_app", ADVERSARIAL_TOKENS),
        ("policy", ("paper", "balanced")),
    ),
    base=(("duration_s", 2.0), ("num_cores", 8)),
)

SEARCH = SweepSpec(
    name="search",
    runner="search",
    description="stochastic placement search: generated app x algorithm",
    axes=(
        generated_app_axis(seed=2014, count=4),
        ("algorithm", ("greedy", "anneal")),
    ),
    base=(
        ("cost", "power"),
        ("iterations", 16),
        ("duration_s", 1.0),
        ("num_cores", 8),
        ("seed", 2014),
    ),
)

#: All built-in campaigns, keyed by name.
SPECS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        DEMO,
        TABLE1,
        FIG6,
        FIG7,
        VFS_FLOOR,
        CORES,
        ABLATIONS,
        FLEET,
        FLEET_GEN,
        FLEET_TIERS,
        PLATFORM,
        PLATFORM_ADC,
        GEN,
        COVER,
        SEARCH,
    )
}

#: The campaigns the benchmark harness emits BENCH artifacts for.
BENCH_SPECS: dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        TABLE1,
        FIG6,
        FIG7,
        ABLATIONS,
        FLEET,
        FLEET_GEN,
        FLEET_TIERS,
        PLATFORM,
        PLATFORM_ADC,
        GEN,
        COVER,
        SEARCH,
    )
}


def get_spec(name: str) -> SweepSpec:
    """Look up a built-in campaign.

    Raises:
        ValueError: unknown campaign name.
    """
    try:
        return SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep spec {name!r}; choose from {sorted(SPECS)}"
        ) from None
