"""Unit + property tests for synchronization point semantics.

Every merge and fire property goes through :class:`Synchronizer`: the
requests of one cycle are submitted, ``end_cycle`` applies them, and
the point word, the event latches and the stats show the outcome.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.synchronizer import (
    DictStorage,
    SyncOp,
    SyncPointLayout,
    SyncProtocolError,
    Synchronizer,
)

from .points import point_state, point_word

LAYOUT = SyncPointLayout(num_cores=8)

#: A starting counter no batch below can take to zero, so the point
#: never fires and its word shows the merged flags and delta.
GUARD = 13


def _unit(word: int = 0) -> tuple[Synchronizer, DictStorage]:
    """An 8-core unit whose point 0 starts at ``word``."""
    storage = DictStorage()
    storage.words[0] = word
    return Synchronizer(num_cores=8, num_points=1, storage=storage), storage


def _cycle(sync: Synchronizer, ops) -> tuple[int, ...]:
    """One cycle issuing every ``(core, op)`` on point 0; returns woken."""
    for core, op in ops:
        sync.submit(core, op, 0)
    return sync.end_cycle()


def _merged(ops) -> tuple[int, int]:
    """The (flags, counter delta) one cycle of ``ops`` leaves on point 0."""
    sync, _ = _unit(GUARD)
    _cycle(sync, ops)
    flags, counter = point_state(sync, 0)
    return flags, counter - GUARD


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------

def test_flags_occupy_msbs_counter_lsbs():
    # Fig. 3: core 0's flag is the most significant bit.
    assert LAYOUT.cores_of(0x8000) == (0,)
    assert LAYOUT.cores_of(0x0100) == (7,)
    assert LAYOUT.counter_mask == 0x00FF
    assert LAYOUT.max_counter == 255


def test_encode_decode_round_trip():
    word = LAYOUT.encode(0x2000 | 0x0400, 9)  # cores 2 and 5
    flags, counter = LAYOUT.decode(word)
    assert LAYOUT.cores_of(flags) == (2, 5)
    assert counter == 9


def test_layout_rejects_too_many_cores():
    with pytest.raises(ValueError):
        SyncPointLayout(num_cores=16)


def test_flag_bit_range_checked():
    # Bit 7 would be core 8's flag; with 8 cores it is a counter bit.
    with pytest.raises(ValueError):
        LAYOUT.encode(0x0080, 0)
    sync, _ = _unit()
    with pytest.raises(ValueError):
        sync.submit(8, SyncOp.SINC, 0)


@given(st.integers(min_value=0, max_value=0xFFFF))
def test_decode_encode_round_trip_any_word(word):
    flags, counter = LAYOUT.decode(word)
    assert LAYOUT.encode(flags, counter) == word


# ---------------------------------------------------------------------------
# Merge reduction
# ---------------------------------------------------------------------------

def test_merge_matches_fig3a():
    # cores 0,1,2 SINC; core 4 SNOP -> flags {0,1,2,4}, counter 3
    sync, storage = _unit()
    _cycle(sync, [(0, SyncOp.SINC), (1, SyncOp.SINC), (2, SyncOp.SINC),
                  (4, SyncOp.SNOP)])
    flags, counter = point_state(sync, 0)
    assert LAYOUT.cores_of(flags) == (0, 1, 2, 4)
    assert counter == 3
    assert sync.stats.merged_writes_saved == 3
    assert storage.writes == 1


def test_merge_matches_fig3b():
    # cores 0,1,2 SINC then core 0 SDEC -> flags {0,1,2}, counter 2
    sync, _ = _unit()
    _cycle(sync, [(0, SyncOp.SINC), (1, SyncOp.SINC), (2, SyncOp.SINC),
                  (0, SyncOp.SDEC)])
    flags, counter = point_state(sync, 0)
    assert LAYOUT.cores_of(flags) == (0, 1, 2)
    assert counter == 2


def test_empty_merge_is_identity():
    """A cycle without requests touches no point."""
    sync, storage = _unit(GUARD)
    assert sync.end_cycle() == ()
    assert (storage.reads, storage.writes) == (0, 0)
    assert point_word(sync, 0) == GUARD


_OPS = st.sampled_from([SyncOp.SINC, SyncOp.SDEC, SyncOp.SNOP])
_BATCH = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), _OPS),
    min_size=1, max_size=GUARD - 1)


@given(_BATCH, st.randoms())
def test_merge_is_order_independent(ops, rng):
    """The hardware merge must not depend on arbitration order."""
    shuffled = list(ops)
    rng.shuffle(shuffled)
    assert _merged(ops) == _merged(shuffled)


@given(_BATCH)
def test_merge_counter_delta_is_sinc_minus_sdec(ops):
    sincs = sum(1 for _, op in ops if op is SyncOp.SINC)
    sdecs = sum(1 for _, op in ops if op is SyncOp.SDEC)
    assert _merged(ops)[1] == sincs - sdecs


@given(_BATCH)
def test_merged_flags_cover_exactly_registering_cores(ops):
    registering = {c for c, op in ops if op is not SyncOp.SDEC}
    assert set(LAYOUT.cores_of(_merged(ops)[0])) == registering


# ---------------------------------------------------------------------------
# Fire semantics
# ---------------------------------------------------------------------------

def test_point_fires_when_counter_returns_to_zero():
    sync, _ = _unit()
    _cycle(sync, [(0, SyncOp.SINC), (1, SyncOp.SINC), (4, SyncOp.SNOP)])
    assert point_state(sync, 0)[1] == 2
    assert sync.sleep(4)
    assert _cycle(sync, [(0, SyncOp.SDEC)]) == ()
    assert sync.stats.point_fires == 0
    assert sync.sleep(0)
    # The last SDEC wakes every flagged core: the gated ones resume and
    # the running one gets a latched event.
    assert _cycle(sync, [(1, SyncOp.SDEC)]) == (0, 4)
    assert sync.stats.point_fires == 1
    assert sync.has_pending_event(1)
    assert point_state(sync, 0) == (0, 0)


def test_registration_at_zero_counter_fires_immediately():
    """A consumer that registers after data is ready must not hang."""
    sync, _ = _unit()
    _cycle(sync, [(3, SyncOp.SNOP)])
    assert sync.stats.point_fires == 1
    assert sync.has_pending_event(3)
    assert sync.sleep(3) is False


def test_no_fire_without_requests():
    """A point fires only in a cycle that touches it, even when its
    word (say, one a program stored) has flags and a zero counter."""
    word = 0x2000  # core 2's flag
    sync, _ = _unit(word)
    sync.raise_interrupt(0)
    sync.end_cycle()
    assert sync.stats.point_fires == 0
    assert not sync.has_pending_event(2)
    assert point_word(sync, 0) == word


def test_strict_underflow_raises():
    sync, _ = _unit()
    with pytest.raises(SyncProtocolError, match="underflow"):
        _cycle(sync, [(0, SyncOp.SDEC)])
    assert point_word(sync, 0) == 0


def test_strict_overflow_raises():
    word = LAYOUT.encode(0, LAYOUT.max_counter)
    sync, _ = _unit(word)
    with pytest.raises(SyncProtocolError, match="overflow"):
        _cycle(sync, [(0, SyncOp.SINC)])
    assert point_word(sync, 0) == word


def test_registered_cores_reflect_flags():
    sync, _ = _unit()
    _cycle(sync, [(2, SyncOp.SINC), (6, SyncOp.SNOP), (2, SyncOp.SINC)])
    assert sync.layout.cores_of(point_state(sync, 0)[0]) == (2, 6)


@given(_BATCH)
def test_fire_always_clears_flags_and_zero_counter(ops):
    sync, _ = _unit()
    delta = (sum(op is SyncOp.SINC for _, op in ops)
             - sum(op is SyncOp.SDEC for _, op in ops))
    if delta < 0:
        with pytest.raises(SyncProtocolError):
            _cycle(sync, ops)
        return
    _cycle(sync, ops)
    registering = {c for c, op in ops if op is not SyncOp.SDEC}
    flags, counter = point_state(sync, 0)
    assert sync.stats.point_fires == (delta == 0 and bool(registering))
    if sync.stats.point_fires:
        assert (flags, counter) == (0, 0)
        assert all(sync.has_pending_event(c) for c in registering)
    else:
        assert set(LAYOUT.cores_of(flags)) == registering
        assert counter == delta
