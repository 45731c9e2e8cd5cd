"""Named fleet scenario presets and the scenario token grammar.

A :class:`Scenario` bundles everything that differs between
deployments: how many nodes, which **application source** binds each
node's workload (see :mod:`repro.net.appsource`), how bad their
oscillators are, how lossy the radio is, how often beacons go out and
which sync protocol is in charge.  Presets:

* ``dense-ward`` — a hospital ward full of mains-adjacent monitors:
  many nodes, mild drift, clean radio, offset-only sync is plenty.
* ``drifting-wearables`` — battery wearables with cheap, temperature-
  stressed crystals: large drift spread and sparse beacons, the
  setting where FTSP-style skew compensation earns its keep.
* ``intermittent-harvesting`` — energy-harvesting patches that brown
  out and reboot mid-run, losing their local epoch entirely.
* ``generated-swarm`` — a research fleet whose every node draws a
  *generated* application (:mod:`repro.gen`) from one seeded suite,
  placed by the load-levelled ``balanced`` policy.
* ``mixed-clinic`` — certified Table I monitors beside pilot devices
  running generated apps under ``critical-path`` placement.

Scenarios are frozen dataclasses, so presets can be specialised with
``dataclasses.replace`` (node count, protocol, …) without mutating
the registry.  Beyond presets, *suite-backed* scenarios round-trip
through compact string tokens
(``"gen:<base>:<seed>:<count>:<policy>[:<fam+fam>][:<cores>]"``) via
:func:`scenario_token` / :func:`parse_scenario`, so heterogeneous
fleets ride through JSON-scalar sweep points and CLI arguments the
same way generated apps do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .appsource import (
    AppSource,
    BenchmarkSource,
    GeneratedSuiteSource,
    MixedSource,
)
from .clock import ClockSpec, LocalClock
from .radio import RadioSpec

#: Prefix of suite-backed scenario tokens.
GEN_TOKEN_PREFIX = "gen"

#: Platform width scenario tokens omit (the paper's 8-core node).
DEFAULT_NUM_CORES = 8


@dataclass(frozen=True)
class Scenario:
    """Static description of one fleet deployment.

    Attributes:
        name: registry key (or scenario token for derived scenarios).
        description: one-line human summary.
        default_nodes: fleet size when the caller does not choose one.
        apps: the application source nodes bind their workload from
            (see :mod:`repro.net.appsource`).
        bpm_range: per-node heart rate drawn uniformly from this range.
        abnormal_ratio: pathological-beat ratio of the input schedule
            (drives the on-demand chains).
        drift_ppm_range: magnitude range of per-node oscillator drift;
            the sign is drawn separately, so a fleet spreads both ways.
        jitter_s: clock timestamping noise (stdev, seconds).
        initial_offset_s: per-node boot offset drawn uniformly from
            ``[-x, +x]``.
        power_loss_rate_hz: Poisson rate of power-loss resets per node
            (0 = continuously powered).
        beacon_period_s: reference broadcast period.
        protocol: default sync protocol name.
        radio: link/energy model of the node radios.
    """

    name: str
    description: str
    default_nodes: int
    apps: AppSource
    bpm_range: tuple[float, float]
    abnormal_ratio: float
    drift_ppm_range: tuple[float, float]
    jitter_s: float
    initial_offset_s: float
    power_loss_rate_hz: float
    beacon_period_s: float
    protocol: str
    radio: RadioSpec = RadioSpec()

    def draw_clock(
        self,
        rng: random.Random,
        clock_rng: random.Random,
        duration_s: float,
        resets: bool,
        drift_scale: float = 1.0,
    ) -> LocalClock:
        """Draw one node's oscillator and build its clock.

        Takes drift magnitude (times ``drift_scale``), sign and boot
        offset from ``rng``, in that order; the reset schedule comes
        from ``clock_rng``, at the scenario's rate only if ``resets``.
        """
        magnitude = rng.uniform(*self.drift_ppm_range) * drift_scale
        sign = 1.0 if rng.random() < 0.5 else -1.0
        offset = rng.uniform(-self.initial_offset_s, self.initial_offset_s)
        spec = ClockSpec(
            drift_ppm=sign * magnitude,
            jitter_s=self.jitter_s,
            initial_offset_s=offset,
            power_loss_rate_hz=self.power_loss_rate_hz if resets else 0.0,
        )
        return LocalClock(spec, clock_rng, horizon_s=duration_s)


DENSE_WARD = Scenario(
    name="dense-ward",
    description="hospital ward: many stable monitors, clean radio",
    default_nodes=64,
    apps=BenchmarkSource(mix=(("3L-MF", 2.0), ("3L-MMD", 1.0))),
    bpm_range=(58.0, 96.0),
    abnormal_ratio=0.0,
    drift_ppm_range=(5.0, 25.0),
    jitter_s=5e-6,
    initial_offset_s=0.05,
    power_loss_rate_hz=0.0,
    beacon_period_s=2.0,
    protocol="rbs",
    radio=RadioSpec(loss_prob=0.01, delay_jitter_s=10e-6),
)

DRIFTING_WEARABLES = Scenario(
    name="drifting-wearables",
    description="battery wearables: cheap crystals, sparse beacons",
    default_nodes=24,
    apps=BenchmarkSource(mix=(("3L-MF", 2.0), ("RP-CLASS", 1.0))),
    bpm_range=(55.0, 110.0),
    abnormal_ratio=0.20,
    drift_ppm_range=(30.0, 120.0),
    jitter_s=10e-6,
    initial_offset_s=0.25,
    power_loss_rate_hz=0.0,
    beacon_period_s=5.0,
    protocol="ftsp",
    radio=RadioSpec(loss_prob=0.05, delay_jitter_s=25e-6),
)

INTERMITTENT_HARVESTING = Scenario(
    name="intermittent-harvesting",
    description="harvesting patches: brown-outs reset local clocks",
    default_nodes=16,
    apps=BenchmarkSource(mix=(("3L-MF", 1.0),)),
    bpm_range=(60.0, 100.0),
    abnormal_ratio=0.0,
    drift_ppm_range=(20.0, 80.0),
    jitter_s=10e-6,
    initial_offset_s=0.10,
    power_loss_rate_hz=0.05,
    beacon_period_s=2.0,
    protocol="ftsp",
    radio=RadioSpec(loss_prob=0.08, delay_jitter_s=25e-6),
)

GENERATED_SWARM = Scenario(
    name="generated-swarm",
    description="research fleet: every node draws a generated app",
    default_nodes=24,
    apps=GeneratedSuiteSource(seed=2014, count=12, policy="balanced"),
    bpm_range=(55.0, 110.0),
    abnormal_ratio=0.20,
    drift_ppm_range=(30.0, 120.0),
    jitter_s=10e-6,
    initial_offset_s=0.25,
    power_loss_rate_hz=0.0,
    beacon_period_s=5.0,
    protocol="ftsp",
    radio=RadioSpec(loss_prob=0.05, delay_jitter_s=25e-6),
)

MIXED_CLINIC = Scenario(
    name="mixed-clinic",
    description="clinic floor: certified monitors beside pilot devices",
    default_nodes=32,
    apps=MixedSource(
        parts=(
            (BenchmarkSource(mix=(("3L-MF", 2.0), ("3L-MMD", 1.0))), 2.0),
            (
                GeneratedSuiteSource(seed=7, count=8, policy="critical-path"),
                1.0,
            ),
        )
    ),
    bpm_range=(58.0, 96.0),
    abnormal_ratio=0.10,
    drift_ppm_range=(5.0, 60.0),
    jitter_s=5e-6,
    initial_offset_s=0.10,
    power_loss_rate_hz=0.0,
    beacon_period_s=2.0,
    protocol="rbs",
    radio=RadioSpec(loss_prob=0.02, delay_jitter_s=10e-6),
)

#: Scenario registry, keyed by name.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        DENSE_WARD,
        DRIFTING_WEARABLES,
        INTERMITTENT_HARVESTING,
        GENERATED_SWARM,
        MIXED_CLINIC,
    )
}


def with_protocol(scenario: Scenario, protocol: str | None) -> Scenario:
    """The scenario with its sync protocol overridden (None = keep)."""
    if protocol is None or protocol == scenario.protocol:
        return scenario
    return replace(scenario, protocol=protocol)


def get_scenario(name: str, protocol: str | None = None) -> Scenario:
    """Look up a preset, optionally overriding its sync protocol.

    Raises:
        ValueError: unknown scenario name.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; "
            f"choose from {sorted(SCENARIOS)}"
        ) from None
    return with_protocol(scenario, protocol)


def generated_scenario(
    base: str | Scenario = "drifting-wearables",
    seed: int = 7,
    count: int = 12,
    policy: str = "balanced",
    families: tuple[str, ...] | None = None,
    num_cores: int = DEFAULT_NUM_CORES,
) -> Scenario:
    """A suite-backed scenario derived from a base preset.

    The base preset contributes everything *around* the application —
    clocks, radio, beacons, protocol — while the app source is
    replaced by a :class:`~repro.net.appsource.GeneratedSuiteSource`.
    The derived scenario's name is its round-trip token (see
    :func:`scenario_token`).

    Raises:
        ValueError: unknown base preset, family or policy.
    """
    base_scenario = get_scenario(base) if isinstance(base, str) else base
    source = GeneratedSuiteSource(
        seed=seed,
        count=count,
        families=tuple(families) if families else (),
        policy=policy,
        num_cores=num_cores,
    )
    derived = replace(base_scenario, apps=source)
    return replace(
        derived,
        name=scenario_token(derived),
        description=f"{base_scenario.description} "
        f"[{source.describe()}]",
    )


def scenario_token(scenario: Scenario) -> str:
    """Compact string identity of a scenario.

    Presets serialise to their registry name; suite-backed scenarios
    to ``gen:<base>:<seed>:<count>:<policy>[:<fam+fam>][:<cores>]``
    (the family segment may be empty, and the cores segment is
    omitted at the default platform width).  :func:`parse_scenario`
    inverts both forms, so fleet scenarios ride through JSON-scalar
    sweep points exactly like generated-app tokens.  Tokens do not
    carry a protocol override — pass that alongside, the way
    :func:`repro.net.fleet.run_fleet` does.

    Raises:
        ValueError: the scenario is neither a preset nor derivable
            from one (e.g. a hand-built :class:`MixedSource` fleet —
            pass such scenarios by value, not by token).
    """
    preset = SCENARIOS.get(scenario.name)
    if (
        preset is not None
        and with_protocol(preset, scenario.protocol) == scenario
    ):
        return scenario.name
    source = scenario.apps
    if isinstance(source, GeneratedSuiteSource):
        base = None
        for name, candidate in SCENARIOS.items():
            rebuilt = replace(
                candidate,
                apps=source,
                name=scenario.name,
                description=scenario.description,
                protocol=scenario.protocol,
            )
            if rebuilt == scenario:
                base = name
                break
        if base is not None:
            token = (
                f"{GEN_TOKEN_PREFIX}:{base}:{source.seed}:"
                f"{source.count}:{source.policy}"
            )
            custom_width = source.num_cores != DEFAULT_NUM_CORES
            if source.families or custom_width:
                token += ":" + "+".join(source.families)
            if custom_width:
                token += f":{source.num_cores}"
            return token
    raise ValueError(
        f"scenario {scenario.name!r} has no token form; only presets "
        f"and preset-derived generated-suite scenarios round-trip"
    )


def parse_scenario(text: str, protocol: str | None = None) -> Scenario:
    """Resolve a scenario token: preset name or ``gen:`` form.

    Raises:
        ValueError: unknown preset or malformed ``gen:`` token, with
            the valid choices listed.
    """
    if text in SCENARIOS:
        return get_scenario(text, protocol)
    grammar = "'gen:<base>:<seed>:<count>:<policy>[:<fam+fam>][:<cores>]'"
    if text.startswith(GEN_TOKEN_PREFIX + ":"):
        parts = text.split(":")
        if len(parts) not in (5, 6, 7):
            raise ValueError(
                f"malformed scenario token {text!r}; expected {grammar}"
            )
        _, base, seed_text, count_text, policy = parts[:5]
        families = (
            tuple(parts[5].split("+"))
            if len(parts) >= 6 and parts[5]
            else None
        )
        try:
            seed, count = int(seed_text), int(count_text)
            num_cores = (
                int(parts[6]) if len(parts) == 7 else DEFAULT_NUM_CORES
            )
        except ValueError:
            raise ValueError(
                f"malformed scenario token {text!r}; seed, count and "
                f"cores must be integers"
            ) from None
        return with_protocol(
            generated_scenario(
                base=base,
                seed=seed,
                count=count,
                policy=policy,
                families=families,
                num_cores=num_cores,
            ),
            protocol,
        )
    raise ValueError(
        f"unknown scenario {text!r}; choose from {sorted(SCENARIOS)} "
        f"or a {grammar} token"
    )
