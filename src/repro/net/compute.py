"""Fleet-scale compute fast path: dedupe + cache ``simulate()`` runs.

Every fleet node pays two kinds of work.  The radio/clock/sync part —
beacon reception, drift replay, residual-error sampling — is cheap
and node-specific.  The *app compute* part (the
:class:`~repro.power.energy.PowerReport` of a
:func:`repro.sysc.engine.simulate` run) is massively shared:
thousands of nodes bind the same ``(app, plan, mode, num_cores,
duration)`` and differ only in heart rate, which the simulator
reduces to the beat schedule's *abnormal* events.

:class:`ComputeResolver` content-addresses that shared part, keyed by
``(app fingerprint, plan hash, mode, num_cores, duration_s, schedule
signature)``, and simulates each distinct key once.  Results land in
a :class:`ComputeCache`: a process-local memo plus an optional disk
layer (same layout and code-fingerprint namespacing rules as
:mod:`repro.sweep.cache`).

Results travel as plain JSON payloads (:data:`COMPUTE_ENTRY_SCHEMA`)
and are rebuilt into fresh ``PowerReport`` objects with the category
insertion order of :func:`repro.power.energy.compute_power`, so a
cache hit is byte-identical to the simulation it replaced — cold and
warm runs ``cmp`` equal.

Counters (``net.compute.*``) use *logical* cache semantics — hits are
``requests - distinct keys``, independent of what happens to be on
disk — so metrics artifacts stay deterministic across cache states,
worker counts and resume points.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..apps.mapping import MappingPlan
from ..apps.phases import AppSpec
from ..gen.generator import app_fingerprint
from ..power.energy import PowerReport
from ..power.vfs import MIN_SYSTEM_CLOCK_MHZ, OperatingPoint
from ..search.space import candidate_from_plan
from ..store import code_fingerprint, entry_path, read_json, write_json
from ..sysc.engine import Mode, schedule_signature, simulate_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .appsource import AppBinding

__all__ = [
    "COMPUTE_CACHE_ENV",
    "COMPUTE_ENTRY_SCHEMA",
    "EXACT_TIER",
    "ComputeCache",
    "ComputeRequest",
    "ComputeResolution",
    "ComputeResolver",
    "ComputeSettings",
    "ComputeSummary",
    "ResolvedCompute",
    "app_plan_key",
    "build_request",
    "clear_process_caches",
    "compute_key",
    "compute_settings",
    "record_compute_counters",
    "report_from_payload",
    "schedule_signature",
    "simulate_request",
]

#: Environment override for the on-disk compute cache root.  Unlike
#: the sweep cache there is *no* implicit home-directory default: the
#: disk layer is off unless a root is configured here or per run.
COMPUTE_CACHE_ENV = "REPRO_COMPUTE_CACHE"

#: Schema tag of one cached compute entry.
COMPUTE_ENTRY_SCHEMA = "repro-compute-entry/1"

#: Tier label recorded on resolved entries (every entry is a
#: ``simulate()`` result).
EXACT_TIER = "exact"

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Category insertion order of :func:`repro.power.energy.compute_power`
#: — ``PowerReport.total_uw`` sums in this order, so cached payloads
#: must rebuild it to stay float-for-float identical to a live run.
_CATEGORY_ORDER = (
    "cores_logic",
    "clock_tree",
    "instr_mem",
    "data_mem",
    "interconnect",
    "synchronizer",
    "leakage",
)


@dataclass(frozen=True)
class ComputeSettings:
    """How a fleet resolves its app-compute work.

    Attributes:
        cache_dir: on-disk cache root; None means the
            :data:`COMPUTE_CACHE_ENV` override or, failing that,
            process-local memoisation only.

    Frozen and hashable so it can ride inside
    :class:`~repro.net.fleet.FleetConfig`.
    """

    cache_dir: str | None = None


def compute_settings(
    compute: "str | ComputeSettings | None",
    cache_dir: str | None = None,
) -> ComputeSettings | None:
    """Normalise a user-facing ``compute=`` argument.

    Accepts None (inline simulation per node), ``"exact"`` or a
    ready-made :class:`ComputeSettings`.

    Raises:
        ValueError: any other value.
    """
    if compute is None or isinstance(compute, ComputeSettings):
        return compute
    if compute != "exact":
        raise ValueError(f"unknown compute mode {compute!r}; use 'exact'")
    return ComputeSettings(cache_dir=cache_dir)


@dataclass(frozen=True)
class ComputeRequest:
    """One node's app-compute work, content-addressed.

    Attributes:
        key: content hash — nodes sharing it produce byte-identical
            simulation results (the schedule signature covers every
            schedule property ``simulate()`` reads).
        binding: the node's app binding.
        mode: simulator mode the node would run.
        duration_s: simulated seconds.
        signature: the schedule signature (simulated only if this
            request is the first of its key and the cache misses).
    """

    key: str
    binding: "AppBinding"
    mode: Mode
    duration_s: float
    signature: list


@dataclass(frozen=True)
class ResolvedCompute:
    """A resolved compute entry: JSON payload + provenance tier."""

    key: str
    tier: str
    payload: dict

    def report(self) -> PowerReport:
        """A fresh, mutable ``PowerReport`` (safe to annotate)."""
        return report_from_payload(self.payload)


@dataclass(frozen=True)
class ComputeSummary:
    """Deterministic account of one fleet's compute resolution.

    Cache counts are *logical*: ``cache_hits`` is the dedupe win
    (``requests - distinct_keys``) and ``cache_misses`` /
    ``cache_stores`` equal ``distinct_keys`` — independent of the
    physical cache state, so cold and warm runs report identically.
    """

    requests: int
    distinct_keys: int

    @property
    def cache_hits(self) -> int:
        return self.requests - self.distinct_keys

    @property
    def cache_misses(self) -> int:
        return self.distinct_keys

    @property
    def cache_stores(self) -> int:
        return self.distinct_keys


@dataclass(frozen=True)
class ComputeResolution:
    """Everything a resolver run produced."""

    table: dict[str, ResolvedCompute]
    summary: ComputeSummary


def app_plan_key(
    app: AppSpec, plan: MappingPlan | None, num_cores: int
) -> str:
    """Content hash of ``(app, placement, width)``.

    Reuses :func:`repro.gen.generator.app_fingerprint` for the app
    content and the search :meth:`Candidate.key` for multi-core
    placements, so the hash survives process boundaries and
    regeneration (unlike ``id()``-based memo keys).
    """
    if plan is None:
        plan_key = "default"
    elif plan.multicore:
        plan_key = candidate_from_plan(plan).key()
    else:
        plan_key = "single-core"
    blob = _CANONICAL_JSON.encode(
        {
            "app": app_fingerprint(app),
            "num_cores": num_cores,
            "plan": plan_key,
        }
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def compute_key(
    app_key: str,
    mode: Mode,
    duration_s: float,
    signature: list,
    floor_mhz: float = MIN_SYSTEM_CLOCK_MHZ,
) -> str:
    """Content-addressed cache key of one compute unit."""
    blob = _CANONICAL_JSON.encode(
        {
            "app": app_key,
            "duration_s": duration_s,
            "floor_mhz": floor_mhz,
            "mode": mode.value,
            "schedule": signature,
            "schema": COMPUTE_ENTRY_SCHEMA,
        }
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]


def build_request(
    binding: "AppBinding", mode: Mode, duration_s: float, signature: list
) -> ComputeRequest:
    """Content-address one node's compute work (``signature`` is its
    schedule's :func:`~repro.sysc.engine.schedule_signature`)."""
    key = compute_key(binding.app_key, mode, duration_s, signature)
    return ComputeRequest(
        key=key,
        binding=binding,
        mode=mode,
        duration_s=duration_s,
        signature=signature,
    )


def payload_from_report(report: PowerReport) -> dict:
    """Serialise a ``PowerReport`` into a cache entry payload."""
    return {
        "schema": COMPUTE_ENTRY_SCHEMA,
        "tier": EXACT_TIER,
        "frequency_mhz": report.operating_point.frequency_mhz,
        "voltage": report.operating_point.voltage,
        "duration_s": report.duration_s,
        "categories": dict(report.categories),
    }


def report_from_payload(payload: dict) -> PowerReport:
    """Rebuild a ``PowerReport`` in canonical category order.

    ``total_uw`` sums the category dict in insertion order; JSON
    round-trips (and ``sort_keys``) would reorder it, so the report
    is rebuilt in :data:`_CATEGORY_ORDER` to keep the float sum
    bit-identical to a live ``compute_power`` result.
    """
    categories = payload["categories"]
    ordered = {
        name: float(categories[name])
        for name in _CATEGORY_ORDER
        if name in categories
    }
    for name in sorted(categories):
        if name not in ordered:
            ordered[name] = float(categories[name])
    return PowerReport(
        operating_point=OperatingPoint(
            frequency_mhz=float(payload["frequency_mhz"]),
            voltage=float(payload["voltage"]),
        ),
        duration_s=float(payload["duration_s"]),
        categories=ordered,
    )


#: Process-wide memo layer (cache-root independent: payloads are
#: pure functions of their content-addressed keys).
_MEMO: dict[str, dict] = {}


def clear_process_caches() -> None:
    """Drop the process-local memo layer (test isolation hook)."""
    _MEMO.clear()


def _complete(payload) -> bool:
    """True for an exact entry of this schema whose categories and
    operating point are all there, as finite floats."""
    if not isinstance(payload, dict):
        return False
    categories = payload.get("categories")
    fields = ("frequency_mhz", "voltage", "duration_s")
    values = [payload.get(name) for name in fields]
    return (
        payload.get("schema") == COMPUTE_ENTRY_SCHEMA
        and payload.get("tier") == EXACT_TIER
        and isinstance(categories, dict)
        and sorted(categories) == sorted(_CATEGORY_ORDER)
        and all(
            type(value) is float and math.isfinite(value)
            for value in [*categories.values(), *values]
        )
    )


class ComputeCache:
    """Process memo + optional content-addressed disk layer.

    The disk layout is :class:`repro.sweep.cache.ResultCache`'s:
    ``<root>/<code fingerprint>/<key[:2]>/<key>.json``
    (:func:`repro.store.entry_path`), and corrupt or foreign files
    read as misses.
    The cache is deliberately silent in metrics — physical hit
    patterns depend on prior runs, so only the resolver's logical
    counters surface.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get(COMPUTE_CACHE_ENV) or None
        self.root = Path(root) if root is not None else None
        self._fingerprint: str | None = None

    @property
    def fingerprint(self) -> str:
        """Code fingerprint namespacing the disk layer (lazy)."""
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return entry_path(self.root, self.fingerprint, key)

    def get(self, key: str) -> dict | None:
        """Look up one entry (memo first, then disk); an incomplete
        disk entry reads as a miss, so it is simulated and replaced."""
        payload = _MEMO.get(key)
        if payload is not None or self.root is None:
            return payload
        payload = read_json(self._path(key))
        if not _complete(payload):
            return None
        _MEMO[key] = payload
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store one entry (memo always, disk when configured)."""
        _MEMO[key] = payload
        if self.root is None:
            return
        try:
            write_json(self._path(key), payload)
        except OSError:
            return


class ComputeResolver:
    """Resolve a batch of compute requests: dedupe, cache, simulate."""

    def __init__(self, settings: ComputeSettings) -> None:
        self.cache = ComputeCache(settings.cache_dir)

    def resolve(
        self, requests: Sequence[ComputeRequest]
    ) -> ComputeResolution:
        """Resolve every request; returns a key-indexed table.

        Deterministic for a given request set: every distinct key is
        looked up in the cache, in key order, and the misses of each
        (app, mode, cores, duration) group are simulated in one
        :func:`~repro.sysc.engine.simulate_batch` call, so the table
        never depends on the physical cache state.  How many rows run
        does depend on it, so they run under suspended metrics and
        only the logical resolver counters are recorded.
        """
        unique: dict[str, ComputeRequest] = {}
        for request in requests:
            unique.setdefault(request.key, request)

        payloads: dict[str, dict] = {}
        misses: dict[tuple, list[ComputeRequest]] = {}
        for key in sorted(unique):
            payload = self.cache.get(key)
            if payload is not None:
                payloads[key] = payload
                continue
            request = unique[key]
            group = (
                request.binding.app_key,
                request.mode,
                request.binding.num_cores,
                request.duration_s,
            )
            misses.setdefault(group, []).append(request)
        with obs.suspended():
            for batch in misses.values():
                results = _simulate_group(batch)
                for request, result in zip(batch, results):
                    payload = payload_from_report(result.power)
                    self.cache.put(request.key, payload)
                    payloads[request.key] = payload
        table = {
            key: ResolvedCompute(
                key=key, tier=str(payloads[key]["tier"]), payload=payloads[key]
            )
            for key in sorted(unique)
        }
        summary = ComputeSummary(
            requests=len(requests), distinct_keys=len(unique)
        )
        return ComputeResolution(table=table, summary=summary)


def _simulate_group(requests: Sequence[ComputeRequest]) -> list:
    """One engine call: each request's ``SimulationResult``, in order."""
    first = requests[0]
    return simulate_batch(
        first.binding.app,
        first.mode,
        [request.signature for request in requests],
        duration_s=first.duration_s,
        num_cores=first.binding.num_cores,
        mapping=first.binding.plan,
    )


def simulate_request(request: ComputeRequest) -> PowerReport:
    """The power report of one request, simulated on its own."""
    return _simulate_group([request])[0].power


def record_compute_counters(summary: ComputeSummary) -> None:
    """Emit the deterministic ``net.compute.*`` counters once."""
    if summary.requests:
        obs.add("net.compute.requests", summary.requests)
    if summary.distinct_keys:
        obs.add("net.compute.keys", summary.distinct_keys)
    if summary.cache_hits:
        obs.add("net.compute.cache.hits", summary.cache_hits)
    if summary.cache_misses:
        obs.add("net.compute.cache.misses", summary.cache_misses)
    if summary.cache_stores:
        obs.add("net.compute.cache.stores", summary.cache_stores)
