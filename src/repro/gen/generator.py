"""Seeded synthetic application generator.

:func:`generate_app` turns ``(family, seed, index)`` into a fully
valid :class:`~repro.apps.phases.AppSpec`: the topology family gives
the structure (:mod:`repro.gen.topology`), and every workload knob is
sampled from the characterisation-anchored distributions of
:mod:`repro.gen.distributions`.  The per-app draw stream is seeded
from a SHA-256 over the identity triple — the same
derive-from-stable-identity pattern the sweep cache and the fleet
runner use — so generation is a pure function: the same triple yields
a byte-identical application in any process, under any
``PYTHONHASHSEED``, on any platform.

Identity triples round-trip through compact string *tokens*
(``"pipeline:2014:0"``) so generated applications can ride through
JSON-scalar-only sweep points (:mod:`repro.sweep.spec`) and CLI
arguments; :func:`app_fingerprint` gives the canonical content hash
the determinism tests pin.
"""

from __future__ import annotations

import hashlib
import random

from ..apps.phases import (
    AppSpec,
    ChannelSpec,
    PhaseSpec,
    Trigger,
)
from ..store import content_key
from . import distributions as dist
from .topology import (
    FAMILY_ORDER,
    Shape,
    StageSpec,
    Topology,
    build_topology,
    parse_shape,
    require_family,
    require_shape,
    shape_fragment,
)

#: Schema tag mixed into every per-app seed derivation (bump to
#: re-roll the whole generated population).
GEN_SCHEMA = "repro-gen/1"

#: Sampling rate of generated applications (the paper's 250 Hz).
GEN_FS = 250.0

#: Shared runtime/boot section size (matches the paper benchmarks).
GEN_RUNTIME_WORDS = 300

#: Beat window of triggered phases, in samples (the paper's 208).
GEN_BEAT_SPAN = 208

#: Soft cap on distinct code sections per app.  Deliberately above
#: the IM bank count: the paper's multi-core policy dedicates one
#: bank per non-head section, so section-heavy draws overflow it and
#: can only map through the packing heuristics — the adversarial
#: corner of the generated population.
MAX_SECTIONS = 10

#: Beat-rate producer-consumer hand-off (RP-CLASS's chain channel).
BEAT_RATE_HANDOFFS = 0.01


def derive_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from stable identity parts."""
    text = "\x00".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def app_token(family: str, seed: int, index: int,
              shape: Shape | None = None) -> str:
    """Compact string identity of one generated app.

    Default-shaped identities keep the historical three-segment form;
    adversarial shapes append a canonical fourth segment
    (``"random-dag:7:0:depth=10+trig=1"``).
    """
    base = f"{family}:{seed}:{index}"
    fragment = shape_fragment(shape) if shape is not None else ""
    return f"{base}:{fragment}" if fragment else base


def parse_app_token(token: str) -> tuple[str, int, int, Shape]:
    """Invert :func:`app_token`.

    Returns:
        ``(family, seed, index, shape)`` — ``shape`` is the default
        (falsy) :class:`~repro.gen.topology.Shape` for plain
        three-segment tokens.

    Raises:
        ValueError: malformed token, unknown family, or shape knobs
            on a family other than ``random-dag`` — naming the
            offending segment.
    """
    parts = token.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"malformed app token {token!r}; expected "
            f"'family:seed:index[:knob=value+...]'")
    family, seed_text, index_text = parts[:3]
    require_family(family)
    try:
        seed, index = int(seed_text), int(index_text)
    except ValueError:
        raise ValueError(
            f"malformed app token {token!r}; seed and index must be "
            f"integers") from None
    shape = parse_shape(parts[3], token) if len(parts) == 4 else Shape()
    require_shape(family, shape)
    return family, seed, index, shape


def _stage_phase(stage: StageSpec, rng: random.Random,
                 section_budget: int, head: bool = False,
                 shared_from: PhaseSpec | None = None) -> PhaseSpec:
    """Sample one stage's workload knobs into a PhaseSpec.

    ``shared_from`` (diamond DAGs) bypasses the section draw
    entirely: the stage re-executes an earlier phase's code, so it
    lists the *same* section names, sizes and inserted sync words —
    the IM mapper deduplicates them, which is exactly the sharing
    pressure the shape exists to exercise.
    """
    cycles = dist.sample_phase_cycles(rng)
    if shared_from is not None:
        sections = tuple(shared_from.sections)
    else:
        sections = dist.sample_sections(rng, stage.name, section_budget,
                                        head=head)
    sync_rate = dist.sample_sync_rate(rng)
    sync_code = (shared_from.sync_code_words if shared_from is not None
                 else dist.sample_sync_code_words(rng))
    alignment = dist.sample_alignment(rng) if stage.replicas > 1 else 0.0
    shared = dist.sample_shared_reads(rng) if stage.replicas > 1 else 0.0
    return PhaseSpec(
        name=stage.name,
        cycles_per_sample=cycles,
        dm_access_rate=dist.sample_dm_rate(rng),
        sections=sections,
        sync_code_words=sync_code,
        sync_ops_per_sample=round(cycles * sync_rate, 2),
        replicas=stage.replicas,
        lockstep_alignment=alignment,
        shared_read_fraction=shared,
        trigger=Trigger.ON_ABNORMAL if stage.on_abnormal
        else Trigger.STREAMING,
        dm_words=dist.sample_dm_words(rng),
    )


def _rescale_cycles(phases: list[PhaseSpec],
                    rng: random.Random) -> list[PhaseSpec]:
    """Normalise streaming totals into the plausible app band.

    The raw per-phase draws are independent, so deep topologies would
    pile up implausible totals; rescaling the whole app onto a sampled
    single-core budget keeps every generated app inside the clock band
    the paper's platform actually serves.
    """
    streaming = sum(phase.cycles_per_sample * phase.replicas
                    for phase in phases
                    if phase.trigger is Trigger.STREAMING)
    if streaming <= 0.0:
        return phases
    target = dist.sample_app_cycle_budget(rng)
    scale = target / streaming
    rescaled = []
    for phase in phases:
        cycles = round(phase.cycles_per_sample * scale, 1)
        sync_ops = round(phase.sync_ops_per_sample * scale, 2)
        rescaled.append(PhaseSpec(
            name=phase.name,
            cycles_per_sample=cycles,
            dm_access_rate=phase.dm_access_rate,
            sections=phase.sections,
            sync_code_words=phase.sync_code_words,
            sync_ops_per_sample=sync_ops,
            replicas=phase.replicas,
            lockstep_alignment=phase.lockstep_alignment,
            shared_read_fraction=phase.shared_read_fraction,
            trigger=phase.trigger,
            dm_words=phase.dm_words,
        ))
    return rescaled


def _channels(topology: Topology,
              phases: list[PhaseSpec]) -> list[ChannelSpec]:
    channels = []
    for index, stage in enumerate(topology.stages):
        if not stage.inputs:
            continue
        handoffs = BEAT_RATE_HANDOFFS if stage.on_abnormal else 1.0
        channels.append(ChannelSpec(
            producers=tuple(topology.stages[i].name for i in stage.inputs),
            consumer=phases[index].name,
            handoffs_per_sample=handoffs,
        ))
    return channels


def generate_app(family: str, seed: int, index: int = 0,
                 shape: Shape | None = None) -> AppSpec:
    """Generate one valid application from its identity.

    Args:
        family: topology family (see
            :data:`repro.gen.topology.FAMILY_ORDER`).
        seed: suite seed.
        index: app index within the suite.
        shape: adversarial structure knobs (``random-dag`` only); a
            default shape reproduces the historical triple identity
            byte-for-byte.

    Raises:
        ValueError: unknown family, or shape knobs on a family other
            than ``random-dag``.
    """
    shape = require_shape(family, shape)
    identity: tuple[object, ...] = (GEN_SCHEMA, family, seed, index)
    if shape:
        identity += (shape_fragment(shape),)
    rng = random.Random(derive_seed(*identity))
    topology = build_topology(family, rng, shape=shape)
    phases: list[PhaseSpec] = []
    sections_used = 0
    for position, stage in enumerate(topology.stages):
        budget = MAX_SECTIONS - sections_used - (
            len(topology.stages) - len(phases) - 1)
        shared = (phases[stage.shares] if stage.shares is not None
                  else None)
        phase = _stage_phase(stage, rng, max(1, budget),
                             head=position == 0, shared_from=shared)
        if shared is None:
            sections_used += len(phase.sections)
        phases.append(phase)
    phases = _rescale_cycles(phases, rng)
    app = AppSpec(
        name=f"G{index:02d}-{family}",
        fs=GEN_FS,
        phases=phases,
        channels=_channels(topology, phases),
        runtime_words=GEN_RUNTIME_WORDS,
        beat_span_samples=GEN_BEAT_SPAN,
        description=f"generated {family} workload "
                    f"(seed {seed}, index {index}"
                    + (f", shape {shape_fragment(shape)})" if shape
                       else ")"),
    )
    app.validate()
    return app


def app_from_token(token: str) -> AppSpec:
    """Regenerate the application a token identifies.

    Args:
        token: a ``"family:seed:index"`` identity from
            :func:`app_token` / :func:`suite_tokens`.

    Returns:
        The byte-identical application the token names.

    Raises:
        ValueError: malformed token or unknown family.
    """
    family, seed, index, shape = parse_app_token(token)
    return generate_app(family, seed, index, shape=shape)


def suite_tokens(seed: int, count: int,
                 families: tuple[str, ...] | None = None) -> list[str]:
    """The identity tokens of one generated suite.

    Families are cycled round-robin in :data:`FAMILY_ORDER` (or the
    caller's explicit order), so any prefix of a suite is itself a
    balanced suite.

    Raises:
        ValueError: unknown family or non-positive count.
    """
    if count < 1:
        raise ValueError("suite needs at least one app")
    chosen = tuple(families) if families else FAMILY_ORDER
    for family in chosen:
        require_family(family)
    return [app_token(chosen[index % len(chosen)], seed, index)
            for index in range(count)]


def generate_suite(seed: int, count: int,
                   families: tuple[str, ...] | None = None
                   ) -> list[AppSpec]:
    """Generate a balanced suite of applications.

    Args:
        seed: suite seed (every app's draw stream derives from it).
        count: applications to generate (>= 1).
        families: family cycle; :data:`FAMILY_ORDER` when omitted.

    Returns:
        ``count`` valid applications, families cycled round-robin —
        the materialised form of :func:`suite_tokens`.

    Raises:
        ValueError: unknown family or non-positive count.
    """
    return [app_from_token(token)
            for token in suite_tokens(seed, count, families)]


def app_to_mapping(app: AppSpec) -> dict:
    """Canonical JSON-ready form of an application.

    Field order is the declaration order of the dataclasses; every
    container is a list; enums serialise to their values.  This is the
    substrate of :func:`app_fingerprint` and of the byte-identical
    artifact guarantee.
    """
    return {
        "name": app.name,
        "fs": app.fs,
        "runtime_words": app.runtime_words,
        "beat_span_samples": app.beat_span_samples,
        "description": app.description,
        "phases": [
            {
                "name": phase.name,
                "cycles_per_sample": phase.cycles_per_sample,
                "dm_access_rate": phase.dm_access_rate,
                "sections": [
                    {"name": section.name, "words": section.words}
                    for section in phase.sections
                ],
                "sync_code_words": phase.sync_code_words,
                "sync_ops_per_sample": phase.sync_ops_per_sample,
                "replicas": phase.replicas,
                "lockstep_alignment": phase.lockstep_alignment,
                "shared_read_fraction": phase.shared_read_fraction,
                "trigger": phase.trigger.value,
                "dm_words": phase.dm_words,
            }
            for phase in app.phases
        ],
        "channels": [
            {
                "producers": list(channel.producers),
                "consumer": channel.consumer,
                "handoffs_per_sample": channel.handoffs_per_sample,
            }
            for channel in app.channels
        ],
    }


def app_fingerprint(app: AppSpec) -> str:
    """Stable content hash of an application's canonical form."""
    return content_key(app_to_mapping(app))[:16]
