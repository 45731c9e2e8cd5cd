"""Tiered cluster→gateway→backbone hierarchies above flat fleets.

Real deployments of the paper's nodes are not flat stars: body
clusters sync to a gateway, gateways sync to a campus backbone
(Baumgartner et al.'s heterogeneous WSNs, Cappelle et al.'s multi-IMU
body networks).  This module describes such deployments:

* :class:`Tier` — one level of the hierarchy: the sync protocol its
  members run against their parent, the beacon period they are served
  at, the fan-out per parent and a drift scale (backbone gateways
  usually carry better crystals than leaf patches).
* :class:`HierarchySpec` — a base :class:`~repro.net.scenarios
  .Scenario` (clocks, radio, app source) plus an ordered tuple of
  tiers hanging off one backbone reference node.  Specs round-trip
  through compact ``tiers:`` tokens alongside the flat ``gen:``
  scenario tokens, so hierarchical fleets ride through JSON-scalar
  sweep points and CLI arguments unchanged.

**Error compounding.**  A member of tier *i* estimates its *parent's*
clock from the beacons it hears (:func:`repro.net.timesync
.sync_replay`); its effective error to the backbone is that hop
error plus the parent's own effective error at the shared sample
instants.  The composition is first-order additive — exact for the
free-running baselines (the telescoping sum collapses to leaf local
clock minus backbone clock) and accurate to the product of per-hop
errors otherwise, which is far below the errors themselves.

**Draws.**  The root is one :func:`build_member`; tier members are
drawn as arrays per (tier-0 subtree, tier) by :func:`draw_members`,
so draws depend on neither worker count, wave size nor resume point.

**Scale.**  Hierarchical fleets are sized up to a million nodes, so
per-node exact application simulation is off the table.  Instead,
node compute power is looked up (:func:`bindings_power_uw`) in a
per-app profile table (:func:`profile_table`) that resolves every
app the source can bind once, at the scenario's canonical heart rate,
through :class:`repro.net.compute.ComputeResolver`.  Radio energy,
clocks, receptions and sync errors remain exact per node.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..sysc.engine import cached_uniform_schedule
from .appsource import AppBinding
from .clock import LocalClock, read_clocks
from .compute import build_request
from .radio import Reception
from .scenarios import (
    DENSE_WARD,
    DRIFTING_WEARABLES,
    Scenario,
    parse_scenario,
    scenario_token,
)
from .timesync import PROTOCOLS, sync_replay

#: Prefix of hierarchy tokens (``tiers:<tier/...>:<base>``).
TIERS_TOKEN_PREFIX = "tiers"

#: Stream path of the backbone reference node.
ROOT_PATH = "root"

#: Simulated seconds of the per-app power profile.  Profiles are
#: amortised over every node bound to the same app, so a short exact
#: simulation suffices; runs shorter than this profile at their own
#: duration.
PROFILE_DURATION_S = 4.0

#: Grammar hint quoted by every token error.
_TIER_GRAMMAR = "'tiers:<proto@<period>x<fan>[~<scale>]/...>:<base>'"


@dataclass(frozen=True)
class Tier:
    """One level of a deployment hierarchy.

    Attributes:
        name: human label of the level (``backbone``, ``ward`` ...).
        protocol: sync protocol its members run against their parent
            (any :data:`repro.net.timesync.PROTOCOLS` name).
        beacon_period_s: period of the beacons each parent broadcasts
            to this tier's members.
        fan_out: members per parent node (>= 1).
        drift_scale: multiplier on the base scenario's drift range
            for this tier's oscillators (gateways tend to carry
            better crystals than leaf patches).
    """

    name: str
    protocol: str
    beacon_period_s: float
    fan_out: int
    drift_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier needs a non-empty name")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown tier protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        if self.beacon_period_s <= 0.0:
            raise ValueError("tier beacon period must be positive")
        if self.fan_out < 1:
            raise ValueError("tier fan-out must be >= 1")
        if self.drift_scale <= 0.0:
            raise ValueError("tier drift scale must be positive")


def _default_tier_names(count: int) -> tuple[str, ...]:
    """Canonical tier names of a parsed token (position-derived)."""
    if count <= 0:
        return ()
    if count == 1:
        return ("cluster",)
    middles = tuple(f"relay{i}" for i in range(1, count - 1))
    return ("backbone",) + middles + ("cluster",)


@dataclass(frozen=True)
class HierarchySpec:
    """A hierarchical deployment: one backbone root plus tiers.

    The base scenario contributes everything *around* the hierarchy —
    app source, clock quality, radio, heart rates — while the tiers
    describe its shape: tier 0 hangs off the single backbone
    reference node, each member of tier *i* parents ``fan_out``
    members of tier *i + 1*.  Power-loss resets apply only to the
    last (leaf) tier; gateways and the root are powered
    infrastructure.

    Attributes:
        name: registry key or round-trip token.
        base: the flat scenario the hierarchy is built from.
        tiers: ordered levels, backbone-adjacent first.  An empty
            tuple is the degenerate root-only deployment.
    """

    name: str
    base: Scenario
    tiers: tuple[Tier, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.base, Scenario):
            raise ValueError("hierarchy base must be a Scenario")
        for tier in self.tiers:
            if not isinstance(tier, Tier):
                raise ValueError("hierarchy tiers must be Tier values")

    @property
    def tier_counts(self) -> tuple[int, ...]:
        """Node count per tier (cumulative fan-out products)."""
        counts = []
        members = 1
        for tier in self.tiers:
            members *= tier.fan_out
            counts.append(members)
        return tuple(counts)

    @property
    def n_nodes(self) -> int:
        """Total fleet size, the backbone root included."""
        return 1 + sum(self.tier_counts)

    @property
    def subtrees(self) -> int:
        """Independent tier-0 subtrees (the streaming work unit)."""
        return self.tiers[0].fan_out if self.tiers else 0

    @property
    def subtree_nodes(self) -> int:
        """Nodes per tier-0 subtree (root excluded)."""
        if not self.tiers:
            return 0
        return (self.n_nodes - 1) // self.subtrees


WARD_CAMPUS = HierarchySpec(
    name="ward-campus",
    base=DENSE_WARD,
    tiers=(
        Tier(
            name="backbone",
            protocol="ftsp",
            beacon_period_s=10.0,
            fan_out=8,
            drift_scale=0.5,
        ),
        Tier(
            name="ward",
            protocol="rbs",
            beacon_period_s=2.0,
            fan_out=16,
        ),
    ),
)

BODY_NETWORKS = HierarchySpec(
    name="body-networks",
    base=DRIFTING_WEARABLES,
    tiers=(
        Tier(
            name="backbone",
            protocol="ftsp",
            beacon_period_s=5.0,
            fan_out=12,
        ),
        Tier(
            name="body",
            protocol="rbs",
            beacon_period_s=1.0,
            fan_out=6,
        ),
    ),
)

MEGA_CAMPUS = HierarchySpec(
    name="mega-campus",
    base=DENSE_WARD,
    tiers=(
        Tier(
            name="backbone",
            protocol="ftsp",
            beacon_period_s=10.0,
            fan_out=320,
            drift_scale=0.5,
        ),
        Tier(
            name="ward",
            protocol="rbs",
            beacon_period_s=2.0,
            fan_out=320,
        ),
    ),
)

#: Hierarchy registry, keyed by name.
HIERARCHIES: dict[str, HierarchySpec] = {
    spec.name: spec
    for spec in (WARD_CAMPUS, BODY_NETWORKS, MEGA_CAMPUS)
}


def get_hierarchy(name: str) -> HierarchySpec:
    """Look up a hierarchy preset.

    Raises:
        ValueError: unknown preset name.
    """
    try:
        return HIERARCHIES[name]
    except KeyError:
        raise ValueError(
            f"unknown hierarchy {name!r}; "
            f"choose from {sorted(HIERARCHIES)}"
        ) from None


def _tier_token(tier: Tier) -> str:
    """One tier's token segment (names are position-derived)."""
    token = f"{tier.protocol}@{tier.beacon_period_s:g}x{tier.fan_out}"
    if tier.drift_scale != 1.0:
        token += f"~{tier.drift_scale:g}"
    return token


def _parse_tier(segment: str, name: str, text: str) -> Tier:
    """Parse one ``proto@<period>x<fan>[~<scale>]`` segment."""
    protocol, at, rest = segment.partition("@")
    body, tilde, scale_text = rest.partition("~")
    period_text, x, fan_text = body.rpartition("x")
    if not at or not x:
        raise ValueError(
            f"malformed hierarchy token {text!r}; expected "
            f"{_TIER_GRAMMAR}"
        )
    try:
        period = float(period_text)
        fan_out = int(fan_text)
        scale = float(scale_text) if tilde else 1.0
    except ValueError:
        raise ValueError(
            f"malformed hierarchy token {text!r}; period, fan-out "
            f"and scale must be numeric"
        ) from None
    return Tier(
        name=name,
        protocol=protocol,
        beacon_period_s=period,
        fan_out=fan_out,
        drift_scale=scale,
    )


def hierarchy_token(spec: HierarchySpec) -> str:
    """Compact string identity of a hierarchy.

    Presets serialise to their registry name; everything else to
    ``tiers:<proto@<period>x<fan>[~<scale>]/...>:<base>`` where
    ``<base>`` is the base scenario's own token (preset name or
    ``gen:`` form).  Tier names are not encoded — parsing assigns
    canonical position-derived names.

    Raises:
        ValueError: the base scenario has no token form.
    """
    preset = HIERARCHIES.get(spec.name)
    if preset is not None and preset == spec:
        return spec.name
    if not spec.tiers:
        raise ValueError(
            "tierless hierarchies have no token form; register a "
            "preset instead"
        )
    segments = "/".join(_tier_token(tier) for tier in spec.tiers)
    return (
        f"{TIERS_TOKEN_PREFIX}:{segments}:{scenario_token(spec.base)}"
    )


def parse_hierarchy(text: str) -> HierarchySpec:
    """Resolve a hierarchy token: preset name or ``tiers:`` form.

    Raises:
        ValueError: unknown preset or malformed token, with the
            valid choices listed.
    """
    if text in HIERARCHIES:
        return HIERARCHIES[text]
    if not text.startswith(TIERS_TOKEN_PREFIX + ":"):
        raise ValueError(
            f"unknown hierarchy {text!r}; choose from "
            f"{sorted(HIERARCHIES)} or a {_TIER_GRAMMAR} token"
        )
    parts = text.split(":", 2)
    if len(parts) != 3 or not parts[1] or not parts[2]:
        raise ValueError(
            f"malformed hierarchy token {text!r}; expected "
            f"{_TIER_GRAMMAR}"
        )
    segments = parts[1].split("/")
    names = _default_tier_names(len(segments))
    tiers = tuple(
        _parse_tier(segment, name, text)
        for segment, name in zip(segments, names)
    )
    return HierarchySpec(
        name=text, base=parse_scenario(parts[2]), tiers=tiers
    )


def _stream(seed: int, path: str, kind: str) -> random.Random:
    """A named stream keyed by a position-derived hierarchy path
    (``"root"``, or ``"3"`` for the fourth tier-0 subtree).  String
    seeding hashes through SHA-512 inside :class:`random.Random` —
    stable across processes, never ``hash()``.
    """
    return random.Random(f"{seed}:tiers:{path}:{kind}")


def build_member(
    spec: HierarchySpec,
    tier_index: int,
    path: str,
    seed: int,
    duration_s: float,
) -> tuple[AppBinding, LocalClock]:
    """Bind one member's app and build its clock from its own streams.

    :func:`repro.net.node.build_node`'s draw discipline, with the
    tier's drift scale and leaf-only resets; streaming runs build the
    backbone root (``tier_index`` -1) this way.
    """
    base = spec.base
    tier = spec.tiers[tier_index] if tier_index >= 0 else None
    rng = _stream(seed, path, "app")
    binding = base.apps.bind(rng, base.abnormal_ratio)
    clock = base.draw_clock(
        rng,
        _stream(seed, path, "clock"),
        duration_s,
        resets=tier is not None and tier_index == len(spec.tiers) - 1,
        drift_scale=tier.drift_scale if tier is not None else 1.0,
    )
    return binding, clock


def draw_members(
    spec: HierarchySpec,
    seed: int,
    index: int,
    tier_index: int,
    rows: int,
    beacons: int,
    duration_s: float,
) -> tuple[np.ndarray, ...]:
    """Draw tier ``tier_index`` of tier-0 subtree ``index`` as arrays.

    One Philox generator, keyed by the first 128 bits of the SHA-256
    of ``f"{seed}:tiers:{index}:{tier_index}"``, yields in turn: drift
    magnitude ``U(drift_ppm_range) * drift_scale``, sign, boot offset,
    leaf-tier Poisson resets, then per (member, beacon) loss, delay
    ``propagation_s + |N(0, delay_jitter_s)|`` and timestamp noise
    ``N(0, jitter_s)`` — :func:`build_member`'s distributions.
    Returns ``(drift_ppm, offset_s, resets, heard, delay_s, noise_s)``,
    a row per member in path order: ``(M,)``, ``(M,)``, leaf resets
    as :func:`~repro.net.clock.read_clocks` takes them (else None),
    then ``(M, beacons)`` each.
    """
    text = f"{seed}:tiers:{index}:{tier_index}"
    key = int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "big")
    rng = np.random.Generator(np.random.Philox(key=key))
    base = spec.base
    magnitude = rng.uniform(*base.drift_ppm_range, rows)
    magnitude *= spec.tiers[tier_index].drift_scale
    sign = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    offset = rng.uniform(-base.initial_offset_s, base.initial_offset_s, rows)
    resets = None
    rate_hz = base.power_loss_rate_hz
    if tier_index == len(spec.tiers) - 1 and rate_hz > 0.0:
        counts = rng.poisson(rate_hz * duration_s, rows)
        resets = np.full((rows, counts.max(initial=0)), np.inf)
        filled = np.arange(resets.shape[1]) < counts[:, None]
        resets[filled] = rng.uniform(0.0, duration_s, counts.sum())
        resets.sort(axis=1)
    shape = (rows, beacons)
    radio = base.radio
    heard = rng.random(shape) >= radio.loss_prob
    jitter = np.abs(rng.normal(0.0, radio.delay_jitter_s, shape))
    noise = rng.normal(0.0, base.jitter_s, shape)
    delay = radio.propagation_s + jitter
    return sign * magnitude, offset, resets, heard, delay, noise


def hop_error_samples(
    protocol_name: str,
    receptions: list[Reception],
    clock: LocalClock,
    sample_times: list[float],
    parent_readings: list[float],
) -> tuple[list[float], list[float]]:
    """One member's signed per-sample error against its parent.

    The one-row call of :func:`repro.net.timesync.sync_replay`, which
    flat nodes run against the reference.  Returns ``(hop_errors,
    baselines)``: the protocol's estimate of the parent clock, and the
    raw local clock, minus the parent's reading at each sample time.
    """
    stamps = [
        (r.rx_global, r.rx_local, r.beacon.ref_timestamp) for r in receptions
    ]
    times = np.asarray(sample_times, dtype=float)
    resets = np.array([clock.reset_times]) if clock.reset_times else None
    own = np.array([[clock.spec.initial_offset_s], [clock.spec.drift_ppm]])
    errors, baselines = sync_replay(
        protocol_name,
        times,
        read_clocks(*own, resets, times),
        np.array([parent_readings], dtype=float),
        # rx_global, rx_local and ref rows:
        *np.array(stamps).reshape(-1, 3).T[:, None],
        resets=resets,
    )
    return errors[0].tolist(), baselines[0].tolist()


def profile_key(
    binding: AppBinding, base: Scenario, duration_s: float
) -> tuple:
    """The app-profile identity ``bindings_power_uw`` resolves by."""
    bpm = (base.bpm_range[0] + base.bpm_range[1]) / 2.0
    return (
        binding.token,
        binding.name,
        binding.policy,
        binding.num_cores,
        base.abnormal_ratio,
        bpm,
        min(duration_s, PROFILE_DURATION_S),
    )


def bindings_power_uw(
    bindings: list[AppBinding],
    base: Scenario,
    duration_s: float,
    profiles: dict[tuple, float],
) -> tuple[float, float, int]:
    """Summed compute power (µW), clock floor and repairs of bound nodes.

    The profile runs at the scenario's canonical heart rate (the
    midpoint of ``bpm_range``) and a bounded duration
    (:data:`PROFILE_DURATION_S`), so a mega-fleet pays one simulation
    per *distinct* application instead of one per node — the
    deliberate accuracy/scale trade of the hierarchy layer.
    ``profiles`` comes from :func:`profile_table`; a missing key is a
    hard error rather than a silent re-simulation.  A profile is looked
    up once per distinct app (first-seen order), times its node count.
    """
    obs.add("net.profile.requests", len(bindings))
    distinct = {id(binding): binding for binding in bindings}
    groups: dict[tuple, list] = {}
    for ident, nodes in Counter(map(id, bindings)).items():
        key = profile_key(distinct[ident], base, duration_s)
        groups.setdefault(key, [distinct[ident], 0])[1] += nodes
    power, floor, repairs = 0.0, 0.0, 0
    for key, (binding, nodes) in groups.items():
        power += profiles[key] * nodes
        floor += binding.floor_mhz * nodes
        repairs += binding.repairs * nodes
    return power, floor, repairs


def profile_table(
    base: Scenario, duration_s: float, resolver
) -> "tuple[dict[tuple, float], object]":
    """Pre-resolve every profile the scenario's source can request.

    Enumerates the source's closed binding universe, resolves all
    distinct compute work in one batched
    :meth:`repro.net.compute.ComputeResolver.resolve` call, and
    returns ``(profile-key -> power µW table, ComputeSummary)``.
    In exact mode every value equals the ``simulate()`` total of its
    binding bit for bit, because cached payloads rebuild their
    reports in the exact category order.
    """
    bindings = base.apps.universe(base.abnormal_ratio)
    bpm = (base.bpm_range[0] + base.bpm_range[1]) / 2.0
    bounded = min(duration_s, PROFILE_DURATION_S)
    requests = []
    for binding in bindings:
        schedule = cached_uniform_schedule(
            bounded,
            binding.app.fs,
            bpm=bpm,
            abnormal_ratio=base.abnormal_ratio,
        )
        requests.append(
            build_request(binding, binding.mode, bounded, schedule)
        )
    resolution = resolver.resolve(requests)
    table = {
        profile_key(binding, base, duration_s): resolution.table[
            request.key
        ]
        .report()
        .total_uw
        for binding, request in zip(bindings, requests)
    }
    return table, resolution.summary


__all__ = [
    "BODY_NETWORKS",
    "HIERARCHIES",
    "HierarchySpec",
    "MEGA_CAMPUS",
    "PROFILE_DURATION_S",
    "ROOT_PATH",
    "TIERS_TOKEN_PREFIX",
    "Tier",
    "WARD_CAMPUS",
    "bindings_power_uw",
    "build_member",
    "draw_members",
    "get_hierarchy",
    "hierarchy_token",
    "hop_error_samples",
    "parse_hierarchy",
    "profile_key",
    "profile_table",
]
