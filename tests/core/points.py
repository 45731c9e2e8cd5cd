"""Read a synchronization point without touching the unit's counters.

The tests here run the unit over its default :class:`DictStorage`;
these readers decode ``storage.words`` directly, so inspecting a point
counts no storage read.
"""

from repro.core.synchronizer import Synchronizer


def point_word(sync: Synchronizer, point: int) -> int:
    """Raw word of ``point`` (as visible to ``lw``)."""
    return sync.storage.words.get(sync.point_address(point), 0)


def point_state(sync: Synchronizer, point: int) -> tuple[int, int]:
    """(flags, counter) of ``point``."""
    return sync.layout.decode(point_word(sync, point))
