"""Logarithmic-interconnect crossbars with broadcast support.

The platform connects cores to the memory banks through crossbars that
"allow combinational (single-cycle) accesses from cores to memories"
following the logarithmic interconnect of Kakoee et al. [19], "modified
to allow broadcasting of data and instructions" (Sec. IV-A): multiple
read requests for the *same location* in the *same cycle* merge into a
single memory access whose result is fanned out to all requesters.

Requests to the same bank but *different* addresses conflict; a
round-robin arbiter grants one address group per bank per cycle and the
losers retry next cycle (a pipeline stall for the losing core).

:class:`Crossbar` models this for N ports; the single-core baseline
uses the same class with one port (where neither broadcasting nor
arbitration can occur), matching the paper's remark that a simple
decoder suffices — the energy model, not the timing model, captures the
decoder-vs-crossbar cost difference.

Ports are bits of a mask, as cores are flags of a sync point word.  The
round-robin rule (:meth:`Crossbar.pick`) and the counter rule
(:meth:`Crossbar.book`) each have one copy, which callers that grant a
cycle themselves share with :meth:`Crossbar.arbitrate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: One access presented to a crossbar: ``(word, ports)``.  ``word`` is
#: the physical word it touches, in bank ``word // words_per_bank``;
#: ``ports`` is the mask of the requesting ports that share the access,
#: bit ``p`` for port ``p`` (several for a broadcast read, one otherwise).
Transaction = tuple[int, int]


@dataclass
class CrossbarStats:
    """Cumulative crossbar activity (inputs to the power model).

    Attributes:
        requests: total port requests presented.
        grants: requests served (including broadcast-merged ones).
        accesses: actual memory accesses performed (one per granted
            transaction), i.e. ``grants - broadcast_merged``.
        broadcast_merged: requests served by another port's access.
        conflicts: requests stalled by bank conflicts.
        broadcast_cycles: cycles in which at least one merge happened.
    """

    requests: int = 0
    grants: int = 0
    accesses: int = 0
    broadcast_merged: int = 0
    conflicts: int = 0
    broadcast_cycles: int = 0

    @property
    def broadcast_fraction(self) -> float:
        """Fraction of granted requests served by a merged access.

        This is the "IM/DM Broadcast (%)" metric of Table I: how much
        memory traffic was eliminated by the broadcasting interconnect.
        """
        if self.grants == 0:
            return 0.0
        return self.broadcast_merged / self.grants


class Crossbar:
    """N-port crossbar with per-bank round-robin arbitration.

    Args:
        ports: number of requesting ports (cores).
        banks: number of memory banks on the other side.
        broadcast: whether same-word same-cycle reads may share one
            access (the paper's modification); off for the ablation
            study ABL-1.
        name: diagnostic name.
        words_per_bank: words of each bank; word ``w`` is in bank
            ``w // words_per_bank``.
    """

    def __init__(self, ports: int, banks: int, broadcast: bool = True,
                 name: str = "xbar", words_per_bank: int = 1) -> None:
        self.ports = ports
        self.num_banks = banks
        self.broadcast = broadcast
        self.name = name
        self.words_per_bank = words_per_bank
        self.stats = CrossbarStats()
        self._rr_priority = [0] * banks  # per-bank round-robin pointer
        # The ports of every mask, in id order, indexed by the mask.
        self.port_sets: list[tuple[int, ...]] = [()]
        for port in range(ports):
            self.port_sets += [group + (port,) for group in self.port_sets]

    def pick(self, bank: int, ports: int) -> int:
        """The port of mask ``ports`` that wins ``bank``: the first at or
        after the bank's round-robin pointer (the lowest set bit once the
        mask is rotated right by it), which then moves on by one."""
        count, priority = self.ports, self._rr_priority[bank]
        self._rr_priority[bank] = (priority + 1) % count
        rotated = ports >> priority | ports << count - priority
        return ((rotated & -rotated).bit_length() - 1 + priority) % count

    def book(self, grants: int, accesses: int, conflicts: int = 0,
             cycles: int = 1) -> None:
        """Count ``cycles`` like cycles, in each of which ``accesses``
        accesses served ``grants`` requests and ``conflicts`` requests
        stalled; the grants beyond one per access were merged in."""
        stats = self.stats
        stats.requests += (grants + conflicts) * cycles
        stats.grants += grants * cycles
        stats.accesses += accesses * cycles
        stats.conflicts += conflicts * cycles
        if grants > accesses:
            stats.broadcast_merged += (grants - accesses) * cycles
            stats.broadcast_cycles += cycles

    def arbitrate(self, transactions: Iterable[Transaction]
                  ) -> tuple[list[Transaction], int]:
        """Resolve one cycle's transactions; returns (granted, stalled).

        The caller groups requests into transactions (reads of one word
        merge while ``broadcast`` is on; each write, and each read
        without broadcasting, is its own) and presents them in the
        order of their first ports.  A bank with one transaction grants
        it.  When several compete, :meth:`pick` names a port of their
        union and the transaction holding it wins; the rest stall.
        Granted transactions come back in the order their banks were
        first presented, the stalled ports as one mask.
        """
        presented = stalled = 0
        by_bank: dict[int, list[Transaction]] = {}
        for transaction in transactions:
            presented |= transaction[1]
            by_bank.setdefault(transaction[0] // self.words_per_bank,
                               []).append(transaction)
        for bank in by_bank:
            if bank >= self.num_banks:
                self.stats.requests += presented.bit_count()  # then refused
                raise ValueError(f"{self.name}: bank {bank} out of range")
        granted: list[Transaction] = []
        for bank, contenders in by_bank.items():
            winner = contenders[0]
            if len(contenders) > 1:
                union = 0
                for _, ports in contenders:
                    union |= ports
                port = 1 << self.pick(bank, union)
                winner = next(t for t in contenders if t[1] & port)
                stalled |= union ^ winner[1]
            granted.append(winner)
        self.book((presented ^ stalled).bit_count(), len(granted),
                  stalled.bit_count())
        return granted, stalled

    def reset(self) -> None:
        """Zero the cumulative counters and every bank's priority."""
        self.stats = CrossbarStats()
        self._rr_priority = [0] * self.num_banks
