"""The coverage model: dimensions, bins, and the CoverageMap.

A *bin* is one point of the structural-x-outcome cross product; its
key is the dimension labels joined with ``/`` in declaration order
(``"random-dag/d9+/f1/private/rejected/r2-4"``).  The declared space
is pruned per family to the combinations the generator can actually
produce — ``independent`` apps have no channels, so every
``independent/... /f1/...`` bin would be dead weight — and the pruning
itself is data (:data:`FAMILY_SPACE`), so tests can assert it.  Hits
that land *outside* the declared space are not dropped: they are
tracked separately as ``unexpected`` bins, turning any drift between
the generator and this model into a visible artifact diff instead of
a silent gap.

Separate from the cross product, four named *adversarial
coverpoints* capture the shapes the fuzz loop exists to reach:

* ``deep-chain`` — more than 8 stages;
* ``wide-fan-in`` — more than 4 producers on one channel;
* ``diamond-shared`` — a multi-producer join plus code sections
  shared across phases;
* ``triggered-subgraph`` — two or more pathological-beat phases.

All ordering is declaration order and every key is a plain string,
so the model contributes nothing hash-order-dependent to the
``repro-cover/1`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..apps.phases import AppSpec, Trigger
from ..gen.explorer import (
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_REPAIRED,
    STATUS_SCREENED,
    ExplorationRecord,
)
from ..gen.topology import FAMILY_ORDER

#: Artifact schema tag (also mixed into the fuzz seed derivation).
COVER_SCHEMA = "repro-cover/1"


@dataclass(frozen=True)
class Band:
    """One labelled integer band of a dimension."""

    label: str
    low: int
    high: int | None = None  # inclusive; None = open-ended

    def contains(self, value: int) -> bool:
        return value >= self.low and (
            self.high is None or value <= self.high)


#: Stage-depth bands (stage count == phase count).
DEPTH_BANDS: tuple[Band, ...] = (
    Band("d1", 1, 1),
    Band("d2-4", 2, 4),
    Band("d5-8", 5, 8),
    Band("d9+", 9),
)

#: Max-fan-in bands (most producers on any single channel).
FANIN_BANDS: tuple[Band, ...] = (
    Band("f0", 0, 0),
    Band("f1", 1, 1),
    Band("f2-4", 2, 4),
    Band("f5+", 5),
)

#: Replica-group-size bands (widest lock-step group).
REPLICA_BANDS: tuple[Band, ...] = (
    Band("r1", 1, 1),
    Band("r2-4", 2, 4),
    Band("r5+", 5),
)

#: Section-sharing labels (any section name in two or more phases).
SHARING_LABELS: tuple[str, ...] = ("private", "shared")

#: Mapping-policy outcome labels (``ExplorationRecord.status``).
OUTCOME_LABELS: tuple[str, ...] = (
    STATUS_OK, STATUS_REPAIRED, STATUS_REJECTED, STATUS_SCREENED,
)


@dataclass(frozen=True)
class Dimension:
    """One axis of the coverage space, with its label vocabulary."""

    name: str
    labels: tuple[str, ...]


def _labels(bands: tuple[Band, ...]) -> tuple[str, ...]:
    return tuple(band.label for band in bands)


#: The coverage dimensions, in bin-key order.
DIMENSIONS: tuple[Dimension, ...] = (
    Dimension("family", FAMILY_ORDER),
    Dimension("depth", _labels(DEPTH_BANDS)),
    Dimension("fan_in", _labels(FANIN_BANDS)),
    Dimension("sharing", SHARING_LABELS),
    Dimension("outcome", OUTCOME_LABELS),
    Dimension("replicas", _labels(REPLICA_BANDS)),
)

#: Reachable structural labels per family.  Derived from the draw
#: ranges in :mod:`repro.gen.topology`: e.g. a pipeline is 2-4
#: stages with a 1-3-replica head and single-producer channels, so
#: everything else is pruned.  Only ``random-dag`` (the adversarial
#: family, with shape knobs) spans multiple bands per axis.
FAMILY_SPACE: dict[str, dict[str, tuple[str, ...]]] = {
    "pipeline": {
        "depth": ("d2-4",),
        "fan_in": ("f1",),
        "sharing": ("private",),
        "replicas": ("r1", "r2-4"),
    },
    "fork-join": {
        "depth": ("d2-4",),
        "fan_in": ("f1",),
        "sharing": ("private",),
        "replicas": ("r2-4",),
    },
    "fan-in": {
        "depth": ("d2-4",),
        "fan_in": ("f2-4",),
        "sharing": ("private",),
        "replicas": ("r1",),
    },
    "independent": {
        "depth": ("d1",),
        "fan_in": ("f0",),
        "sharing": ("private",),
        "replicas": ("r2-4",),
    },
    "random-dag": {
        "depth": ("d2-4", "d5-8", "d9+"),
        "fan_in": ("f1", "f2-4", "f5+"),
        "sharing": ("private", "shared"),
        "replicas": ("r1", "r2-4", "r5+"),
    },
}

#: Structurally impossible (family, depth, fan_in) combinations a
#: naive per-axis product would include: a 5-producer fuse needs the
#: producers plus a head and the fuse itself, so wide fan-in cannot
#: fit in a 2-4-stage app.
EXCLUDED_COMBOS: frozenset[tuple[str, str, str]] = frozenset({
    ("random-dag", "d2-4", "f5+"),
})


def band_label(bands: tuple[Band, ...], value: int) -> str:
    """The label of the band containing ``value``.

    Raises:
        ValueError: value below every band (negative counts).
    """
    for band in bands:
        if band.contains(value):
            return band.label
    raise ValueError(f"value {value!r} outside every band "
                     f"{[band.label for band in bands]}")


def app_depth(app: AppSpec) -> int:
    """Stage depth: the phase count."""
    return len(app.phases)


def app_max_fan_in(app: AppSpec) -> int:
    """Most producers on any single channel (0: no channels)."""
    return max((len(channel.producers) for channel in app.channels),
               default=0)


def app_max_replicas(app: AppSpec) -> int:
    """Widest lock-step replica group."""
    return max(phase.replicas for phase in app.phases)


def app_shares_sections(app: AppSpec) -> bool:
    """True when any code section name appears in >= 2 phases."""
    seen: set[str] = set()
    for phase in app.phases:
        names = {section.name for section in phase.sections}
        if names & seen:
            return True
        seen |= names
    return False


def app_triggered_phases(app: AppSpec) -> int:
    """Number of pathological-beat (ON_ABNORMAL) phases."""
    return sum(1 for phase in app.phases
               if phase.trigger is Trigger.ON_ABNORMAL)


def classify(app: AppSpec,
             record: ExplorationRecord) -> tuple[str, ...]:
    """The dimension labels of one (app, record) pair.

    Structural labels come from the *generated* (pre-repair)
    application; the outcome label is the record's placement status.
    """
    return (
        record.family or "unknown",
        band_label(DEPTH_BANDS, app_depth(app)),
        band_label(FANIN_BANDS, app_max_fan_in(app)),
        SHARING_LABELS[1] if app_shares_sections(app)
        else SHARING_LABELS[0],
        record.status,
        band_label(REPLICA_BANDS, app_max_replicas(app)),
    )


def bin_key(labels: tuple[str, ...]) -> str:
    """Deterministic bin key: labels joined in dimension order."""
    return "/".join(labels)


def all_bins() -> tuple[str, ...]:
    """Every declared bin key, in deterministic declaration order."""
    keys: list[str] = []
    for family in FAMILY_ORDER:
        space = FAMILY_SPACE[family]
        for depth in space["depth"]:
            for fan_in in space["fan_in"]:
                if (family, depth, fan_in) in EXCLUDED_COMBOS:
                    continue
                for sharing in space["sharing"]:
                    for outcome in OUTCOME_LABELS:
                        for replicas in space["replicas"]:
                            keys.append(bin_key((
                                family, depth, fan_in, sharing,
                                outcome, replicas)))
    return tuple(keys)


def _deep_chain(app: AppSpec) -> bool:
    return app_depth(app) > 8


def _wide_fan_in(app: AppSpec) -> bool:
    return app_max_fan_in(app) > 4


def _diamond_shared(app: AppSpec) -> bool:
    return app_shares_sections(app) and any(
        len(channel.producers) >= 2 for channel in app.channels)


def _triggered_subgraph(app: AppSpec) -> bool:
    return app_triggered_phases(app) >= 2


#: Named adversarial coverpoints, in report order.
ADVERSARIAL_POINTS: dict[str, Callable[[AppSpec], bool]] = {
    "deep-chain": _deep_chain,
    "wide-fan-in": _wide_fan_in,
    "diamond-shared": _diamond_shared,
    "triggered-subgraph": _triggered_subgraph,
}


@dataclass
class CoverageMap:
    """Hit counts over the declared bins plus the coverpoints.

    Recording is append-only and order-deterministic: hit counts are
    integers, first-hitting tokens are whatever token was recorded
    first, and every accessor returns sorted or declaration-ordered
    containers.
    """

    _space: tuple[str, ...] = field(default_factory=all_bins)
    _hits: dict[str, int] = field(default_factory=dict)
    _first: dict[str, str] = field(default_factory=dict)
    _adversarial: dict[str, int] = field(default_factory=lambda: {
        name: 0 for name in ADVERSARIAL_POINTS})
    _adversarial_first: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._space_set = frozenset(self._space)

    def record(self, app: AppSpec, record: ExplorationRecord,
               token: str = "") -> tuple[str, bool]:
        """Classify one pair; returns ``(bin key, newly covered)``.

        ``newly covered`` is True only for the first hit of an
        *in-space* bin — unexpected bins never count as coverage
        progress (they are a model gap, not a fuzzing win).
        """
        token = token or record.token
        key = bin_key(classify(app, record))
        fresh = key not in self._hits
        self._hits[key] = self._hits.get(key, 0) + 1
        if fresh:
            self._first[key] = token
        for name, predicate in ADVERSARIAL_POINTS.items():
            if predicate(app):
                if self._adversarial[name] == 0:
                    self._adversarial_first[name] = token
                self._adversarial[name] += 1
        return key, fresh and key in self._space_set

    @property
    def space(self) -> tuple[str, ...]:
        """Every declared bin key."""
        return self._space

    def covered(self) -> list[str]:
        """Sorted in-space bins hit at least once."""
        return sorted(key for key in self._hits
                      if key in self._space_set)

    def uncovered(self) -> list[str]:
        """Declared bins never hit, in declaration order."""
        return [key for key in self._space if key not in self._hits]

    def unexpected(self) -> list[str]:
        """Sorted hit bins outside the declared space."""
        return sorted(key for key in self._hits
                      if key not in self._space_set)

    def hits(self, key: str) -> int:
        return self._hits.get(key, 0)

    def first_token(self, key: str) -> str:
        return self._first.get(key, "")

    def adversarial_hits(self) -> dict[str, int]:
        """Coverpoint hit counts, in declaration order."""
        return dict(self._adversarial)

    def adversarial_first(self, name: str) -> str:
        return self._adversarial_first.get(name, "")
