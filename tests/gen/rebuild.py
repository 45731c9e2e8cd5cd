"""The inverse of :func:`repro.gen.app_to_mapping`.

``test_mapping_round_trip_preserves_app`` rebuilds an app from its
mapping to show that the mapping, the fingerprint's input, loses
nothing.
"""

from __future__ import annotations

from repro.apps.phases import (
    AppSpec,
    ChannelSpec,
    PhaseSpec,
    SectionSpec,
    Trigger,
)


def app_from_mapping(data: dict) -> AppSpec:
    """Rebuild an application from :func:`app_to_mapping` output."""
    phases = [
        PhaseSpec(
            name=entry["name"],
            cycles_per_sample=entry["cycles_per_sample"],
            dm_access_rate=entry["dm_access_rate"],
            sections=tuple(SectionSpec(s["name"], s["words"])
                           for s in entry["sections"]),
            sync_code_words=entry["sync_code_words"],
            sync_ops_per_sample=entry["sync_ops_per_sample"],
            replicas=entry["replicas"],
            lockstep_alignment=entry["lockstep_alignment"],
            shared_read_fraction=entry["shared_read_fraction"],
            trigger=Trigger(entry["trigger"]),
            dm_words=entry["dm_words"],
        )
        for entry in data["phases"]
    ]
    channels = [
        ChannelSpec(
            producers=tuple(entry["producers"]),
            consumer=entry["consumer"],
            handoffs_per_sample=entry["handoffs_per_sample"],
        )
        for entry in data["channels"]
    ]
    app = AppSpec(
        name=data["name"],
        fs=data["fs"],
        phases=phases,
        channels=channels,
        runtime_words=data["runtime_words"],
        beat_span_samples=data["beat_span_samples"],
        description=data["description"],
    )
    app.validate()
    return app
