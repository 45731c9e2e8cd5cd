"""Per-node local clocks with drift, jitter and power-loss resets.

The paper's synchronizer keeps *cores inside one node* in lock-step;
at the network level every node free-runs on its own low-power
oscillator.  Cheap 32 kHz crystals are off nominal by tens of ppm and
wander with temperature, so two nodes that booted together drift apart
by milliseconds per minute — exactly the error the protocols in
:mod:`repro.net.timesync` must estimate away.  Intermittently powered
nodes are worse: a brown-out resets the counter to zero, discarding
the whole notion of local time (Yıldırım et al., "On the
Synchronization of Intermittently Powered Wireless Embedded Systems").

The model distinguishes *reading* the clock (exact, monotonic within a
power cycle) from *timestamping an event* with it (quantisation and
interrupt-latency noise, modelled as white jitter), because the sync
protocols only ever see the noisy timestamps.

All randomness is drawn from a caller-supplied :class:`random.Random`
so a node is a pure function of its seed (see
:mod:`repro.net.fleet`'s determinism contract).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

import numpy as np

#: Conversion factor for drift expressed in parts-per-million.
PPM = 1e-6


@dataclass(frozen=True)
class ClockSpec:
    """Static description of one node's oscillator.

    Attributes:
        drift_ppm: constant frequency error in parts per million
            (positive = the local clock runs fast).
        jitter_s: standard deviation of the white timestamping noise,
            in seconds (crystal quantisation + interrupt latency).
        initial_offset_s: local time at global t=0 (nodes boot at
            different moments, so their counters are offset).
        power_loss_rate_hz: mean rate of power-loss resets (Poisson);
            0 disables intermittency.  On a reset the counter restarts
            from zero, as on an MCU without a persistent timekeeper.
    """

    drift_ppm: float = 0.0
    jitter_s: float = 0.0
    initial_offset_s: float = 0.0
    power_loss_rate_hz: float = 0.0


class LocalClock:
    """One node's free-running clock over a bounded simulation window.

    Power-loss reset times are pre-drawn for ``[0, horizon_s]`` at
    construction so that reads are pure lookups and the RNG call
    sequence does not depend on the order in which the clock is
    queried.

    Args:
        spec: oscillator description.
        rng: per-node random stream (resets and timestamp jitter).
        horizon_s: simulated time span the clock must cover.
    """

    def __init__(
        self, spec: ClockSpec, rng: random.Random, horizon_s: float
    ) -> None:
        self.spec = spec
        self._rng = rng
        self._rate = 1.0 + spec.drift_ppm * PPM
        self.reset_times: list[float] = []
        if spec.power_loss_rate_hz > 0.0:
            t = rng.expovariate(spec.power_loss_rate_hz)
            while t < horizon_s:
                self.reset_times.append(t)
                t += rng.expovariate(spec.power_loss_rate_hz)

    def resets_before(self, global_t: float) -> int:
        """Number of power-loss resets that happened up to ``global_t``."""
        return bisect.bisect_right(self.reset_times, global_t)

    def read(self, global_t: float) -> float:
        """Exact local time at global time ``global_t`` (no noise)."""
        resets = self.resets_before(global_t)
        if resets == 0:
            return self.spec.initial_offset_s + self._rate * global_t
        return self._rate * (global_t - self.reset_times[resets - 1])

    def timestamp(self, global_t: float) -> float:
        """Local timestamp of an event: a noisy :meth:`read`.

        This is what the radio hands to the sync protocol when a
        beacon arrives; successive calls consume the node RNG, so the
        caller must timestamp events in a deterministic order.
        """
        noisy = self.read(global_t)
        if self.spec.jitter_s > 0.0:
            noisy += self._rng.gauss(0.0, self.spec.jitter_s)
        return noisy


def read_clocks(
    offset_s: np.ndarray,
    drift_ppm: np.ndarray,
    resets: np.ndarray | None,
    at: np.ndarray,
) -> np.ndarray:
    """:meth:`LocalClock.read` of ``M`` clocks (``(M,)`` offsets and
    drifts; ``(M, K)`` reset instants, ascending and ``inf``-padded, or
    None) at global instants ``at``, ``(n,)`` or ``(M, n)``."""
    rate = (1.0 + drift_ppm * PPM)[:, None]
    plain = offset_s[:, None] + rate * at
    if resets is None or not resets.shape[1]:
        return plain
    at = np.broadcast_to(at, plain.shape)
    epoch = np.add.reduce(resets[:, :, None] <= at[:, None, :], axis=1)
    last = np.take_along_axis(resets, np.maximum(epoch - 1, 0), axis=1)
    return np.where(epoch > 0, rate * (at - last), plain)
