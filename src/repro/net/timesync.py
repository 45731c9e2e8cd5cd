"""Inter-node time-synchronization protocols as one array replay.

A node learns its parent's clock only from the beacons it hears; a
protocol maps the node's local reading to an estimate of the
parent's, and :class:`repro.net.stats.SyncError` aggregates the
residual.  :data:`PROTOCOLS`: ``none`` (the free-running local
clock), ``rbs`` (the last beacon's offset) and ``ftsp`` (offset and
skew: a centred least-squares line through the last
:data:`FTSP_WINDOW` beacon pairs, Maróti et al.'s FTSP at one hop).

:func:`sync_replay` runs a protocol for many nodes at once, one per
row, under one rule: a heard beacon *counts* at sample instant ``t``
iff it arrived at or before ``t`` and no power-loss reset of the node
falls in ``(arrival, t]``.  Receptions count in arrival order, ties in
beacon order.  Sums run left to right and squares are ``d * d``, so
results depend neither on the CPython version (3.12 made ``sum()`` of
floats compensated) nor on libm's ``pow``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Registry of sync protocol names.
PROTOCOLS = ("none", "rbs", "ftsp")

#: Beacon pairs FTSP regresses over (its reference implementation's).
FTSP_WINDOW = 8


def sync_replay(
    protocol: str,
    sample_times: np.ndarray,
    local: np.ndarray,
    parent: np.ndarray,
    rx_global: np.ndarray,
    rx_local: np.ndarray,
    ref: np.ndarray,
    heard: np.ndarray | None = None,
    resets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Signed sync error of ``M`` nodes at ``S`` sample instants.

    ``local``/``parent`` are ``(M, S)`` exact readings of each node and
    its parent at ``sample_times``; ``rx_global``/``rx_local``/``ref``
    are ``(M, B)``: each beacon's global arrival, the node's local
    stamp of it and the parent timestamp it carries; ``heard`` is
    False where a beacon was lost; ``resets`` holds ``(M, K)`` reset
    instants, ascending and ``inf``-padded (None: all heard, no
    resets).  Returns ``(errors, baselines)``: estimate and local
    reading minus parent reading, ``(M, S)`` each.  Raises ValueError
    on an unknown protocol name.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown sync protocol {protocol!r}; "
            f"choose from {sorted(PROTOCOLS)}"
        )
    baselines = local - parent
    rows, beacons = rx_global.shape
    if protocol == "none" or not beacons:
        return baselines.copy(), baselines
    if heard is not None:
        rx_global = np.where(heard, rx_global, np.inf)
    # Flat indices of each row's receptions in arrival order.
    offsets = np.arange(0, rows * beacons, beacons)[:, None]
    order = rx_global.argsort(axis=1, kind="stable") + offsets
    arrival = rx_global.ravel()[order]
    pairs = np.array((rx_local.ravel()[order], ref.ravel()[order]))
    # A sample is served by the last reception at or before it, unless
    # a reset falls between the two.
    heard_by = np.add.reduce(arrival[:, :, None] <= sample_times, axis=1)
    last = np.maximum(heard_by - 1, 0) + offsets
    served = heard_by > 0
    epoch = None
    if resets is not None and resets.shape[1]:
        epoch = np.add.reduce(resets[:, :, None] <= arrival[:, None], axis=1)
        now = np.add.reduce(resets[:, :, None] <= sample_times, axis=1)
        served &= epoch.ravel()[last] == now
    # Each reception leaves a line to extrapolate: rbs's (and FTSP's
    # fallback) is the reception's own pair with slope 1.
    (x0, y0), slope = pairs, None
    if protocol == "ftsp" and beacons > 1:
        (x0, y0), slope = _ftsp_lines(pairs, epoch, offsets)
    elapsed = local - x0.ravel()[last]
    if slope is not None:
        elapsed *= slope.ravel()[last]
    estimate = np.where(served, y0.ravel()[last] + elapsed, local)
    return estimate - parent, baselines


def _ftsp_lines(
    pairs: np.ndarray, epoch: np.ndarray | None, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """FTSP's line after each reception: ``((x0, y0), slope)``.

    Reception ``e``'s window is the last :data:`FTSP_WINDOW`
    receptions up to ``e`` in ``e``'s epoch: its centred least-squares
    line, or ``e``'s own pair with slope 1.0 where FTSP falls back to
    an offset (one pair, or ``sxx == 0``).  ``pairs`` stacks the local
    and parent stamps in arrival order.  Slots past a window's end
    add 0.0, which leaves a left-to-right sum unchanged.
    """
    position, (count, at, valid) = _plain_windows(pairs.shape[-1])
    if epoch is not None:  # an epoch starts at its first reception
        starts = np.add.reduce(epoch[:, None] < epoch[:, :, None], axis=2)
        first = np.maximum(position + 1 - count, starts)
        count, at, valid = _windows(first, position)
    # Window sums by cumsum: sequential, unlike numpy's pairwise sum.
    xy = pairs.reshape(2, -1)[:, at + offsets[..., None]] * valid
    mean = xy.cumsum(axis=-1)[..., -1] / count
    d = xy - mean[..., None]
    sxx, sxy = (d[0] * d * valid).cumsum(axis=-1)[..., -1]
    fit = (count > 1) & (sxx != 0.0)
    slope = np.where(fit, sxy / np.where(fit, sxx, 1.0), 1.0)
    return np.where(fit, mean, pairs), slope


@lru_cache(maxsize=None)
def _plain_windows(beacons: int) -> tuple[np.ndarray, tuple]:
    """Positions and reset-free :func:`_windows` of ``beacons``
    receptions, shared by every row and call."""
    position = np.arange(beacons)
    first = np.maximum(position - (FTSP_WINDOW - 1), 0)
    return position, _windows(first, position)


def _windows(first: np.ndarray, position: np.ndarray) -> tuple:
    """Sizes, clipped slot positions and slot validity (1.0/0.0) of the
    windows ``[first, position]``."""
    at = first[..., None] + np.arange(min(len(position), FTSP_WINDOW))
    valid = (at <= position[:, None]).astype(float)
    return position + 1 - first, np.minimum(at, position[:, None]), valid


__all__ = ["FTSP_WINDOW", "PROTOCOLS", "sync_replay"]
