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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: One access presented to a crossbar: ``(word, ports)``.  ``word`` is
#: the physical word it touches, in bank ``word // words_per_bank``;
#: ``ports`` are the requesting ports that share the access (several
#: for a broadcast read, one otherwise).
Transaction = tuple[int, list[int]]


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

    def arbitrate(self, transactions: Iterable[Transaction]
                  ) -> tuple[list[Transaction], list[int]]:
        """Resolve one cycle's transactions; returns (granted, stalled).

        The caller groups requests into transactions (reads of one word
        merge while ``broadcast`` is on; each write, and each read
        without broadcasting, is its own) and presents them in the
        order of their first ports.  A bank with one transaction grants
        it.  When several compete, the one holding the bank's
        round-robin priority port, or the port nearest after it, wins;
        the rest stall, and only then does the priority move on by one
        port.  Granted transactions come back in the order their banks
        were first presented, stalled ports in transaction order.
        """
        stats = self.stats
        words_per_bank = self.words_per_bank
        requests = 0
        by_bank: dict[int, list[Transaction]] = {}
        for transaction in transactions:
            requests += len(transaction[1])
            bank = transaction[0] // words_per_bank
            contenders = by_bank.get(bank)
            if contenders is None:
                by_bank[bank] = [transaction]
            else:
                contenders.append(transaction)
        stats.requests += requests
        for bank in by_bank:
            if bank >= self.num_banks:
                raise ValueError(f"{self.name}: bank {bank} out of range")
        ports, priorities = self.ports, self._rr_priority
        granted: list[Transaction] = []
        stalled: list[int] = []
        for bank, contenders in by_bank.items():
            winner = contenders[0]
            if len(contenders) > 1:
                priority = priorities[bank]
                priorities[bank] = (priority + 1) % ports
                nearest = ports
                for transaction in contenders:
                    for port in transaction[1]:
                        distance = (port - priority) % ports
                        if distance < nearest:
                            winner, nearest = transaction, distance
                for transaction in contenders:
                    if transaction is not winner:
                        stalled.extend(transaction[1])
            granted.append(winner)
        # Every request is granted or stalled, and each granted
        # transaction is one access: its other ports were merged in.
        grants = requests - len(stalled)
        stats.grants += grants
        stats.accesses += len(granted)
        stats.conflicts += len(stalled)
        if grants > len(granted):
            stats.broadcast_merged += grants - len(granted)
            stats.broadcast_cycles += 1
        return granted, stalled

    def grant_uncontended(self, requests: int, accesses: int) -> None:
        """Book a cycle in which no transaction contends for a bank, as
        :meth:`arbitrate` would book it: all ``requests`` requests are
        granted, ``accesses`` accesses serve them, and the requests
        beyond one per access were merged in."""
        stats = self.stats
        stats.requests += requests
        stats.grants += requests
        stats.accesses += accesses
        if requests > accesses:
            stats.broadcast_merged += requests - accesses
            stats.broadcast_cycles += 1

    def reset(self) -> None:
        """Zero the cumulative counters and every bank's priority."""
        self.stats = CrossbarStats()
        self._rr_priority = [0] * self.num_banks
