"""Runtime invariants of a flat fleet's result.

The fleet tests check every :class:`~repro.net.fleet.FleetResult`
they produce with :func:`check_invariants`, as the streaming tests
check their runs; :func:`run_fleet` runs a fleet and checks it.
"""

from __future__ import annotations

import math
from dataclasses import astuple

from repro.net import fleet
from repro.net.node import error_grid
from repro.net.stats import SYNC_FIELDS


def check_invariants(result):
    """Nodes, error samples, receptions and resets are conserved from
    the nodes to the summary and its groups, every error is finite
    with ``0 <= mean <= max``, and the mean power is the total's.
    Returns ``result``."""
    summary, nodes = result.summary, result.nodes
    n = summary.n_nodes
    assert n == len(nodes)
    times, steady = error_grid(summary.duration_s)
    errors = []
    for name in SYNC_FIELDS:
        width = len(times) - steady if "steady" in name else len(times)
        error = getattr(summary, name)
        assert error.count == max(n - 1, 0) * width, name
        errors.append(error)
        errors.extend(getattr(node, name) for node in nodes)
    assert summary.beacons_heard == sum(node.beacons_heard for node in nodes)
    assert summary.power_loss_resets == sum(node.resets for node in nodes)
    for groups in (summary.families, summary.policies):
        assert sum(group.nodes for group in groups) == n
        errors.extend(group.steady_sync for group in groups)
    for error in errors:
        assert all(math.isfinite(value) for value in astuple(error))
        assert 0.0 <= error.mean_abs_s <= error.max_abs_s * (1 + 1e-12)
    assert math.isclose(summary.mean_power_uw * n, summary.total_power_uw,
                        rel_tol=1e-12)
    return result


def run_fleet(scenario, **kwargs):
    """:func:`repro.net.fleet.run_fleet`, invariants checked."""
    return check_invariants(fleet.run_fleet(scenario, **kwargs))
