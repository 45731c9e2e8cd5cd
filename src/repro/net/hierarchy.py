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
through :func:`repro.net.compute.resolve`.  Radio energy,
clocks, receptions and sync errors remain exact per node.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .. import obs
from ..sysc.engine import uniform_signature
from .appsource import AppBinding
from .clock import LocalClock, read_clocks
from .compute import (
    ComputeSummary,
    build_request,
    report_from_payload,
    resolve,
)
from .radio import Beacon, Reception
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
        return tuple(accumulate((t.fan_out for t in self.tiers), mul))

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
        return (self.n_nodes - 1) // max(self.subtrees, 1)


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


def _stream(seed: int, *parts) -> random.Random:
    """A named random stream keyed by ``"seed:part:...:part"``: a flat
    node's ``(node id, kind)``, or ``("tiers", path, kind)`` for a
    position-derived hierarchy path (``"root"``, or ``"3"`` for the
    fourth tier-0 subtree).  String seeding hashes through SHA-512
    inside :class:`random.Random`: stable across processes, never
    ``hash()``.
    """
    return random.Random(":".join(map(str, (seed, *parts))))


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
    rng = _stream(seed, "tiers", path, "app")
    binding = base.apps.bind(rng, base.abnormal_ratio)
    clock = base.draw_clock(
        rng,
        _stream(seed, "tiers", path, "clock"),
        duration_s,
        resets=tier is not None and tier_index == len(spec.tiers) - 1,
        drift_scale=tier.drift_scale if tier is not None else 1.0,
    )
    return binding, clock


def draw_members(
    spec: HierarchySpec,
    seed: int,
    indices: list[int],
    tier_index: int,
    rows: int,
    beacons: int,
    duration_s: float,
) -> tuple[np.ndarray, ...]:
    """Draw tier ``tier_index`` of tier-0 subtrees ``indices`` as arrays.

    Per subtree ``index``, one Philox generator, keyed by the first 128
    bits of the SHA-256 of ``f"{seed}:tiers:{index}:{tier_index}"``,
    yields in turn for its ``rows`` members: drift magnitude
    ``U(drift_ppm_range) * drift_scale``, sign, boot offset, leaf-tier
    Poisson resets, then per (member, beacon) loss, delay
    ``propagation_s + |N(0, delay_jitter_s)|`` and timestamp noise
    ``N(0, jitter_s)`` — :func:`build_member`'s distributions.
    Returns ``(drift_ppm, offset_s, resets, heard, delay_s, noise_s)``,
    the subtrees' row blocks in order, members in path order: ``(M,)``,
    ``(M,)``, leaf resets as :func:`~repro.net.clock.read_clocks` takes
    them (else None), then ``(M, beacons)`` each.
    """
    base, radio = spec.base, spec.base.radio
    rate_hz = base.power_loss_rate_hz
    leaf = tier_index == len(spec.tiers) - 1 and rate_hz > 0.0
    drawn, counts, instants = [], [], []
    for index in indices:
        text = f"{seed}:tiers:{index}:{tier_index}"
        digest = hashlib.sha256(text.encode()).digest()
        key = int.from_bytes(digest[:16], "big")
        rng = np.random.Generator(np.random.Philox(key=key))
        magnitude = rng.uniform(*base.drift_ppm_range, rows)
        magnitude *= spec.tiers[tier_index].drift_scale
        sign = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
        bound = base.initial_offset_s
        offset = rng.uniform(-bound, bound, rows)
        if leaf:
            counts.append(rng.poisson(rate_hz * duration_s, rows))
            instants.append(rng.uniform(0.0, duration_s, counts[-1].sum()))
        shape = (rows, beacons)
        heard = rng.random(shape) >= radio.loss_prob
        jitter = np.abs(rng.normal(0.0, radio.delay_jitter_s, shape))
        noise = rng.normal(0.0, base.jitter_s, shape)
        delay = radio.propagation_s + jitter
        drawn.append((sign * magnitude, offset, heard, delay, noise))
    drift, offset, heard, delay, noise = map(np.concatenate, zip(*drawn))
    resets = None
    if leaf:
        counts = np.concatenate(counts)
        resets = np.full((len(counts), counts.max(initial=0)), np.inf)
        filled = np.arange(resets.shape[1]) < counts[:, None]
        resets[filled] = np.concatenate(instants)
        resets.sort(axis=1)
    return drift, offset, resets, heard, delay, noise


def hop_error_samples(
    protocol_name: str,
    beacons: list[Beacon],
    receptions: list[list[Reception]],
    clocks: list[LocalClock],
    sample_times: list[float],
    parent_readings: list[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Members' signed per-sample errors against one parent, as rows.

    One :func:`repro.net.timesync.sync_replay` call (a flat shard's
    followers): row ``r`` spans every beacon, masked to
    ``receptions[r]`` by ``Beacon.seq``.  Returns ``(hop_errors,
    baselines)``: the protocol's estimate of the parent clock, and the
    raw local clock, minus the parent's reading at each sample time,
    ``(M, S)`` each.
    """
    rows = len(clocks)
    heard = np.zeros((rows, len(beacons)), dtype=bool)
    stamps = np.zeros((3, *heard.shape))  # rx_global, rx_local, ref
    cells = [
        (row, r.beacon.seq, r.rx_global, r.rx_local, r.beacon.ref_timestamp)
        for row, received in enumerate(receptions)
        for r in received
    ]
    row, seq, *values = np.array(cells).reshape(-1, 5).T
    at = row.astype(int), seq.astype(int)
    heard[at] = True
    stamps[:, at[0], at[1]] = values
    depth = max((len(clock.reset_times) for clock in clocks), default=0)
    resets = np.full((rows, depth), np.inf)
    for row, clock in enumerate(clocks):
        resets[row, : len(clock.reset_times)] = clock.reset_times
    own = [(c.spec.initial_offset_s, c.spec.drift_ppm) for c in clocks]
    times = np.asarray(sample_times, dtype=float)
    return sync_replay(
        protocol_name,
        times,
        read_clocks(*np.array(own).reshape(rows, 2).T, resets, times),
        np.array([parent_readings], dtype=float),
        *stamps,
        heard,
        resets,
    )


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
    pairs: list[tuple[AppBinding, int]],
    base: Scenario,
    duration_s: float,
    profiles: dict[tuple, float],
) -> tuple[float, float, int]:
    """Summed compute power (µW), clock floor and repairs of bound nodes,
    given as ``(binding, nodes)`` pairs (``AppSource.bind_many``'s).

    The profile runs at the scenario's canonical heart rate (the
    midpoint of ``bpm_range``) and a bounded duration
    (:data:`PROFILE_DURATION_S`), so a mega-fleet pays one simulation
    per *distinct* application instead of one per node — the
    deliberate accuracy/scale trade of the hierarchy layer.
    ``profiles`` comes from :func:`profile_table`; a missing key is a
    hard error rather than a silent re-simulation.  A profile is looked
    up once per distinct app (first-seen order), times its node count.
    """
    groups: dict[tuple, list] = {}
    for binding, nodes in pairs:
        key = profile_key(binding, base, duration_s)
        groups.setdefault(key, [binding, 0])[1] += nodes
    obs.add("net.profile.requests", sum(n for _, n in groups.values()))
    power, floor, repairs = 0.0, 0.0, 0
    for key, (binding, nodes) in groups.items():
        power += profiles[key] * nodes
        floor += binding.floor_mhz * nodes
        repairs += binding.repairs * nodes
    return power, floor, repairs


def profile_table(
    base: Scenario, duration_s: float, cache_dir: str | None = None
) -> tuple[dict[tuple, float], ComputeSummary]:
    """Pre-resolve every profile the scenario's source can request.

    Enumerates the source's closed binding universe, resolves all
    distinct compute work in one :func:`repro.net.compute.resolve`
    call (``cache_dir`` is its disk root), and returns
    ``(profile-key -> power µW table, ComputeSummary)``.  Every value
    equals the ``simulate()`` total of its binding bit for bit,
    because payloads keep the report's category order.
    """
    bindings = base.apps.universe(base.abnormal_ratio)
    bpm = (base.bpm_range[0] + base.bpm_range[1]) / 2.0
    bounded = min(duration_s, PROFILE_DURATION_S)
    requests = []
    for binding in bindings:
        signature = uniform_signature(
            bounded, binding.app.fs, bpm, base.abnormal_ratio
        )
        requests.append(build_request(binding, bounded, signature))
    payloads = resolve(requests, cache_dir)
    table = {}
    for binding, request in zip(bindings, requests):
        report = report_from_payload(payloads[request.key])
        table[profile_key(binding, base, duration_s)] = report.total_uw
    return table, ComputeSummary(len(requests), len(payloads))


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
    "hierarchy_token",
    "hop_error_samples",
    "parse_hierarchy",
    "profile_key",
    "profile_table",
]
