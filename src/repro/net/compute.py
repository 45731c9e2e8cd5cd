"""Fleet-scale compute fast path: dedupe + cache ``simulate()`` runs.

Every fleet node pays two kinds of work.  The radio/clock/sync part —
beacon reception, drift replay, residual-error sampling — is cheap
and node-specific.  The *app compute* part (the
:class:`~repro.power.energy.PowerReport` of a
:func:`repro.sysc.engine.simulate` run) is massively shared:
thousands of nodes bind the same ``(app, plan, mode, num_cores,
duration)`` and differ only in heart rate, which the simulator
reduces to the beat schedule's *abnormal* events.

:func:`resolve` content-addresses that shared part, keyed by
``(app fingerprint, plan hash, mode, num_cores, duration_s, schedule
signature)``, and simulates each distinct key once.  Results land in
a process-local memo plus an optional disk layer (same layout and
code-fingerprint namespacing rules as :mod:`repro.sweep.cache`).

Results travel as plain JSON payloads (:data:`COMPUTE_ENTRY_SCHEMA`)
whose categories are ``[name, µW]`` pairs in the insertion order of
:func:`repro.power.energy.compute_power`.  A JSON round trip keeps a
list's order, so a rebuilt report sums ``total_uw`` in the same order
and a cache hit is byte-identical to the simulation it replaced —
cold and warm runs ``cmp`` equal.

The ``net.compute.*`` counters count requests and distinct keys,
independent of what happens to be on disk, so metrics artifacts stay
deterministic across cache states, worker counts and resume points.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .. import obs
from ..apps.mapping import MappingPlan
from ..apps.phases import AppSpec
from ..gen.generator import app_fingerprint
from ..power.energy import CATEGORIES, PowerReport
from ..power.vfs import OperatingPoint
from ..search.space import candidate_from_plan
from ..store import (
    code_fingerprint,
    content_key,
    entry_path,
    read_json,
    write_json,
)
from ..sysc.engine import Mode, schedule_signature, simulate_batch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .appsource import AppBinding

__all__ = [
    "COMPUTE_CACHE_ENV",
    "COMPUTE_ENTRY_SCHEMA",
    "ComputeRequest",
    "ComputeSummary",
    "app_plan_key",
    "build_request",
    "clear_process_caches",
    "compute_key",
    "record_compute_counters",
    "report_from_payload",
    "resolve",
    "schedule_signature",
    "simulate_request",
]

#: Environment override for the on-disk compute cache root.  Unlike
#: the sweep cache there is *no* implicit home-directory default: the
#: disk layer is off unless a root is configured here or per run.
COMPUTE_CACHE_ENV = "REPRO_COMPUTE_CACHE"

#: Schema tag of one cached compute entry.
COMPUTE_ENTRY_SCHEMA = "repro-compute-entry/2"


@dataclass(frozen=True)
class ComputeRequest:
    """One node's app-compute work, content-addressed.

    Attributes:
        key: content hash — nodes sharing it produce byte-identical
            simulation results (the schedule signature covers every
            schedule property ``simulate()`` reads).
        binding: the node's app binding (its ``mode`` is the
            simulator mode the node runs).
        duration_s: simulated seconds.
        signature: the schedule signature (simulated only if this
            request is the first of its key and the cache misses).
    """

    key: str
    binding: "AppBinding"
    duration_s: float
    signature: list


@dataclass(frozen=True)
class ComputeSummary:
    """Deterministic account of one fleet's compute resolution: the
    requests and their distinct keys, whatever the cache held."""

    requests: int
    distinct_keys: int


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
    return content_key(
        {
            "app": app_fingerprint(app),
            "num_cores": num_cores,
            "plan": plan_key,
        }
    )


def compute_key(
    app_key: str, mode: Mode, duration_s: float, signature: list
) -> str:
    """Content-addressed cache key of one compute unit."""
    return content_key(
        {
            "app": app_key,
            "duration_s": duration_s,
            "mode": mode.value,
            "schedule": signature,
            "schema": COMPUTE_ENTRY_SCHEMA,
        }
    )


def build_request(
    binding: "AppBinding", duration_s: float, signature: list
) -> ComputeRequest:
    """Content-address one node's compute work (``signature`` is its
    schedule's :func:`~repro.sysc.engine.schedule_signature`)."""
    key = compute_key(binding.app_key, binding.mode, duration_s, signature)
    return ComputeRequest(
        key=key, binding=binding, duration_s=duration_s, signature=signature
    )


def payload_from_report(report: PowerReport) -> dict:
    """Serialise a ``PowerReport`` into a cache entry payload."""
    return {
        "schema": COMPUTE_ENTRY_SCHEMA,
        "frequency_mhz": report.operating_point.frequency_mhz,
        "voltage": report.operating_point.voltage,
        "duration_s": report.duration_s,
        "categories": [[name, uw] for name, uw in report.categories.items()],
    }


def report_from_payload(payload: dict) -> PowerReport:
    """A fresh, mutable ``PowerReport`` (safe to annotate) whose
    categories keep the payload's order, so ``total_uw`` sums them as
    the live ``compute_power`` result did."""
    return PowerReport(
        operating_point=OperatingPoint(
            frequency_mhz=float(payload["frequency_mhz"]),
            voltage=float(payload["voltage"]),
        ),
        duration_s=float(payload["duration_s"]),
        categories=dict(payload["categories"]),
    )


#: Process-wide memo layer (cache-root independent: payloads are
#: pure functions of their content-addressed keys).
_MEMO: dict[str, dict] = {}


def clear_process_caches() -> None:
    """Drop the process-local memo layer (test isolation hook)."""
    _MEMO.clear()


def _complete(payload) -> bool:
    """True for an entry of this schema holding every category once
    and the operating point, each value a finite float."""
    if not isinstance(payload, dict):
        return False
    pairs = payload.get("categories")
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in pairs
    ):
        return False
    fields = ("frequency_mhz", "voltage", "duration_s")
    values = [uw for _, uw in pairs] + [payload.get(name) for name in fields]
    return (
        payload.get("schema") == COMPUTE_ENTRY_SCHEMA
        and sorted((name for name, _ in pairs), key=str) == sorted(CATEGORIES)
        and all(
            type(value) is float and math.isfinite(value) for value in values
        )
    )


def resolve(
    requests: Sequence[ComputeRequest], cache_dir: str | Path | None = None
) -> dict[str, dict]:
    """Every distinct request key's payload, in key order.

    Each distinct key is looked up, in key order, in the process memo
    and then on disk under ``cache_dir`` (default: the
    :data:`COMPUTE_CACHE_ENV` root; with neither, the memo alone).
    The disk layout is :class:`repro.sweep.cache.ResultCache`'s,
    ``<root>/<code fingerprint>/<key[:2]>/<key>.json``
    (:func:`repro.store.entry_path`); a corrupt, foreign or incomplete
    file reads as a miss and is rewritten.  The misses of each app
    group are simulated in one
    :func:`~repro.sysc.engine.simulate_batch` call, so the table never
    depends on the cache state.  How many rows run does, so they run
    under suspended metrics.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(COMPUTE_CACHE_ENV) or None
    fingerprint = code_fingerprint() if cache_dir is not None else ""
    unique: dict[str, ComputeRequest] = {}
    for request in requests:
        unique.setdefault(request.key, request)

    payloads: dict[str, dict] = {}
    misses: dict[tuple, list[ComputeRequest]] = {}
    for key in sorted(unique):
        payload = _MEMO.get(key)
        if payload is None and cache_dir is not None:
            payload = read_json(entry_path(cache_dir, fingerprint, key))
            if not _complete(payload):
                payload = None
        if payload is not None:
            payloads[key] = _MEMO[key] = payload
            continue
        request = unique[key]
        group = (request.binding.app_key, request.duration_s)
        misses.setdefault(group, []).append(request)
    with obs.suspended():
        for batch in misses.values():
            for request, result in zip(batch, _simulate_group(batch)):
                payload = payload_from_report(result.power)
                _MEMO[request.key] = payloads[request.key] = payload
                if cache_dir is not None:
                    with suppress(OSError):
                        write_json(
                            entry_path(cache_dir, fingerprint, request.key),
                            payload,
                        )
    return {key: payloads[key] for key in sorted(unique)}


def _simulate_group(requests: Sequence[ComputeRequest]) -> list:
    """One engine call: each request's ``SimulationResult``, in order."""
    first = requests[0]
    return simulate_batch(
        first.binding.app,
        first.binding.mode,
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
