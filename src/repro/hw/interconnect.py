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


@dataclass(slots=True)
class MemRequest:
    """One port's request during one cycle.

    Attributes:
        port: requesting port (core id).
        bank: target bank number.
        index: word index within the bank.
        is_write: write transaction (writes never broadcast).
        value: data to store for writes.
    """

    port: int
    bank: int
    index: int
    is_write: bool = False
    value: int = 0


@dataclass(slots=True)
class GrantGroup:
    """All requests granted for one bank in one cycle.

    For reads, ``requests`` may hold several ports (a broadcast); for
    writes it always holds exactly one.
    """

    bank: int
    index: int
    is_write: bool
    requests: list[MemRequest]

    @property
    def broadcast_extra(self) -> int:
        """Requests served beyond the first (merged accesses)."""
        return len(self.requests) - 1


@dataclass(slots=True)
class ArbitrationResult:
    """Outcome of one cycle of crossbar arbitration.

    Attributes:
        granted: one :class:`GrantGroup` per bank that saw a grant.
        stalled: requests that lost arbitration and must retry.
    """

    granted: list[GrantGroup]
    stalled: list[MemRequest]


@dataclass
class CrossbarStats:
    """Cumulative crossbar activity (inputs to the power model).

    Attributes:
        requests: total port requests presented.
        grants: requests served (including broadcast-merged ones).
        accesses: actual memory accesses performed (one per grant
            group), i.e. ``grants - broadcast_merged``.
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
        broadcast: merge same-address same-cycle reads (the paper's
            modification); disable for the ablation study ABL-1.
        name: diagnostic name.
    """

    def __init__(self, ports: int, banks: int, broadcast: bool = True,
                 name: str = "xbar") -> None:
        self.ports = ports
        self.num_banks = banks
        self.broadcast = broadcast
        self.name = name
        self.stats = CrossbarStats()
        self._rr_priority = [0] * banks  # per-bank round-robin pointer

    def arbitrate(self, requests: list[MemRequest]) -> ArbitrationResult:
        """Resolve one cycle's worth of requests.

        Grant policy per bank: requests are grouped into transactions
        (same-address reads form one mergeable group when broadcasting
        is on; each write and, without broadcasting, each read is its
        own transaction).  A bank with one transaction grants it.  When
        several compete, the one holding the bank's round-robin priority
        port, or the port nearest after it, wins; the rest stall, and
        only then does the priority move on by one port.
        """
        stats = self.stats
        stats.requests += len(requests)
        ports, banks = self.ports, self.num_banks
        by_bank: dict[int, list[MemRequest]] = {}
        for request in requests:
            if request.port >= ports:
                raise ValueError(
                    f"{self.name}: port {request.port} out of range")
            bank = request.bank
            if bank >= banks:
                raise ValueError(f"{self.name}: bank {bank} out of range")
            if bank in by_bank:
                by_bank[bank].append(request)
            else:
                by_bank[bank] = [request]

        granted: list[GrantGroup] = []
        stalled: list[MemRequest] = []
        for bank, bank_requests in by_bank.items():
            first = bank_requests[0]
            if len(bank_requests) == 1 or (
                    self.broadcast and _one_read(bank_requests, first.index)):
                granted.append(GrantGroup(bank, first.index, first.is_write,
                                          bank_requests))
                continue
            groups = self._group(bank_requests)
            winner = self._pick(bank, groups)
            granted.append(winner)
            for group in groups:
                if group is not winner:
                    stalled.extend(group.requests)
        # Every request is granted or stalled, and each grant group is
        # one access: the rest of its requests were merged into it.
        grants = len(requests) - len(stalled)
        stats.grants += grants
        stats.accesses += len(granted)
        stats.conflicts += len(stalled)
        if grants > len(granted):
            stats.broadcast_merged += grants - len(granted)
            stats.broadcast_cycles += 1
        return ArbitrationResult(granted, stalled)

    def _group(self, requests: list[MemRequest]) -> list[GrantGroup]:
        """Partition one bank's competing requests into transactions."""
        groups: list[GrantGroup] = []
        read_groups: dict[int, GrantGroup] = {}
        for request in requests:
            if request.is_write or not self.broadcast:
                groups.append(GrantGroup(request.bank, request.index,
                                         request.is_write, [request]))
            else:
                group = read_groups.get(request.index)
                if group is None:
                    group = read_groups[request.index] = GrantGroup(
                        request.bank, request.index, False, [])
                    groups.append(group)
                group.requests.append(request)
        return groups

    def _pick(self, bank: int, groups: list[GrantGroup]) -> GrantGroup:
        """Round-robin: grant the group nearest the priority port."""
        priority = self._rr_priority[bank]
        ports = self.ports
        self._rr_priority[bank] = (priority + 1) % ports
        best, nearest = groups[0], ports
        for group in groups:
            for request in group.requests:
                distance = (request.port - priority) % ports
                if distance < nearest:
                    best, nearest = group, distance
        return best

    def reset(self) -> None:
        """Zero the cumulative counters and every bank's priority."""
        self.stats = CrossbarStats()
        self._rr_priority = [0] * self.num_banks


def _one_read(requests: list[MemRequest], index: int) -> bool:
    """True if ``requests`` all read word ``index`` (one broadcast)."""
    for request in requests:
        if request.is_write or request.index != index:
            return False
    return True
