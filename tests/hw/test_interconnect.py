"""Tests for the broadcasting crossbar and its arbitration.

A crossbar arbitrates transactions ``(word, ports)``: the ports of one
transaction, a mask with bit ``p`` for port ``p``, share one access to
one word, and the stalled ports come back as one mask.  Which requests
share one is the platform's rule (``System`` merges reads of one word
while broadcasting, and gives each write its own), so the merge rules
are checked on a ``System`` whose cores fetch from separate IM banks
and so reach the DM crossbar in the same cycle.
"""

from hypothesis import given, strategies as st

from repro.hw.interconnect import Crossbar
from repro.hw.system import System
from repro.isa.assembler import assemble
from repro.isa.layout import REG_CORE_ID

_WORD = 0x800  # one shared DM word


def _in_lock_step(cores: int, body: str, broadcast: bool = True) -> System:
    """Run ``body`` on ``cores`` cores, core ``c`` from IM bank ``c``.

    Each core first reads its id into r6.
    """
    source = [f".dm {_WORD}, 77"]
    for core in range(cores):
        source += [f".entry {core}, copy{core}",
                   f".section code{core}, bank={core}", f"copy{core}:",
                   f"li r5, {REG_CORE_ID}", "lw r6, 0(r5)",
                   f"li r4, {_WORD}", body, "halt"]
    system = System.multicore(num_cores=8, broadcast=broadcast)
    system.load(assemble("\n".join(source) + "\n"))
    system.run(100)
    assert system.all_halted
    return system


def test_same_address_reads_merge_into_one_access():
    system = _in_lock_step(3, "lw r1, 0(r4)")
    stats = system.dm_xbar.stats
    assert (stats.requests, stats.accesses, stats.conflicts) == (3, 1, 0)
    assert stats.broadcast_merged == 2
    assert stats.broadcast_fraction == 2 / 3
    assert [core.regs[1] for core in system.cores[:3]] == [77] * 3


def test_different_addresses_same_bank_conflict():
    xbar = Crossbar(ports=4, banks=2, words_per_bank=16)
    granted, stalled = xbar.arbitrate([(5, 0b01), (6, 0b10)])
    assert granted == [(5, 0b01)]
    assert stalled == 0b10
    assert xbar.stats.conflicts == 1


def test_different_banks_do_not_conflict():
    xbar = Crossbar(ports=4, banks=4, words_per_bank=16)
    granted, stalled = xbar.arbitrate([(5, 0b001), (21, 0b010),
                                       (41, 0b100)])
    assert len(granted) == 3
    assert not stalled


def test_writes_never_merge():
    """Two cores storing to one word in one cycle: one grant, one
    stall; the loser stores the next cycle."""
    system = _in_lock_step(2, "sw r6, 0(r4)")
    stats = system.dm_xbar.stats
    assert (stats.requests, stats.grants, stats.conflicts) == (3, 2, 1)
    assert stats.broadcast_merged == 0
    assert system.dm_peek(_WORD) == 1
    assert [core.stats.mem_stalls for core in system.cores[:2]] == [0, 1]


def test_broadcast_disabled_serialises_same_address_reads():
    system = _in_lock_step(2, "lw r1, 0(r4)", broadcast=False)
    stats = system.dm_xbar.stats
    assert (stats.requests, stats.grants, stats.conflicts) == (3, 2, 1)
    assert stats.broadcast_merged == 0
    assert [core.regs[1] for core in system.cores[:2]] == [77, 77]
    # Instruction fetches of one word serialise the same way.
    entries = "".join(f".entry {core}, main\n" for core in range(2))
    system = System.multicore(num_cores=8, broadcast=False)
    system.load(assemble(entries + "main:\n    halt\n"))
    system.run(1)
    stats = system.im_xbar.stats
    assert (stats.requests, stats.grants, stats.conflicts) == (2, 1, 1)
    assert stats.broadcast_merged == 0


def test_round_robin_is_fair_over_time():
    """Two ports fighting for one bank must alternate grants."""
    xbar = Crossbar(ports=2, banks=1, words_per_bank=16)
    winners = []
    for _ in range(10):
        granted, _ = xbar.arbitrate([(1, 0b01), (2, 0b10)])
        winners.append(xbar.port_sets[granted[0][1]][0])
    assert winners.count(0) == 5
    assert winners.count(1) == 5


def test_single_port_never_conflicts():
    xbar = Crossbar(ports=1, banks=4, words_per_bank=16)
    for word in range(20):
        _, stalled = xbar.arbitrate([(word, 0b1)])
        assert not stalled
    assert xbar.stats.conflicts == 0
    assert xbar.stats.broadcast_fraction == 0.0


def _transactions(spec):
    """Random transactions, at most one per port per cycle like real
    cores: reads of one word share one, each write is its own."""
    masks, seen_ports = {}, set()
    for port, word, is_write in spec:
        if port in seen_ports:
            continue
        seen_ports.add(port)
        key = (word, port if is_write else -1)
        masks[key] = masks.get(key, 0) | 1 << port
    return [(word, ports) for (word, _), ports in masks.items()]


# Words 0..23: four banks of six.
_REQS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 23), st.booleans()),
    min_size=0, max_size=16).map(_transactions)


@given(_REQS)
def test_every_request_is_granted_or_stalled_exactly_once(transactions):
    """Conservation: requests are never lost or duplicated."""
    xbar = Crossbar(ports=8, banks=4, words_per_bank=6)
    granted, stalled = xbar.arbitrate(transactions)
    granted_ports = [port for _, ports in granted
                     for port in xbar.port_sets[ports]]
    stalled_ports = list(xbar.port_sets[stalled])
    assert sorted(granted_ports + stalled_ports) == \
        sorted(port for _, ports in transactions
               for port in xbar.port_sets[ports])
    assert len(set(granted_ports) & set(stalled_ports)) == 0
    stats = xbar.stats
    assert stats.grants + stats.conflicts == stats.requests
    assert stats.accesses + stats.broadcast_merged == stats.grants


@given(_REQS)
def test_at_most_one_access_per_bank_per_cycle(transactions):
    xbar = Crossbar(ports=8, banks=4, words_per_bank=6)
    granted, _ = xbar.arbitrate(transactions)
    banks = [word // 6 for word, _ in granted]
    assert len(banks) == len(set(banks))


def test_stalled_requests_eventually_complete():
    """Replaying stalled requests drains any backlog."""
    xbar = Crossbar(ports=4, banks=1, words_per_bank=4)
    outstanding = [(port, 1 << port) for port in range(4)]  # all conflict
    rounds = 0
    while outstanding:
        _, stalled = xbar.arbitrate(outstanding)
        outstanding = [(port, 1 << port)
                       for port in xbar.port_sets[stalled]]
        rounds += 1
        assert rounds <= 4
    assert rounds == 4
