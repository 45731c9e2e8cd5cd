"""Tests for the characterisation kernels (cycle-level ground truth)."""

import pytest

from repro.hw.system import SimulationError
from repro.kernels import (
    characterize,
    characterize_barrier_pipeline,
    characterize_window_min,
    window_min_kernel,
)


def test_window_min_functional_output_matches_python():
    """The assembly window minimum equals a Python reference."""
    report = characterize_window_min(cores=3, window=8, outputs=32)

    def signed16(value):
        return value - 0x10000 if value & 0x8000 else value

    def reference(core):
        x = (10 * core + 3) & 0xFFFF  # LCG seed used by the kernel
        values = []
        for _ in range(32 + 8):
            x = (x * 25173 + 13849) & 0xFFFF
            values.append(x)
        # final output: signed minimum over the last window (bge is a
        # signed comparison on the 16-bit core)
        return min(values[31:31 + 8], key=signed16)

    assert report.results == tuple(reference(c) for c in range(3))


def test_window_min_sync_and_nosync_agree_functionally():
    with_sync = characterize_window_min(cores=3, window=8, outputs=24,
                                        with_sync=True)
    without = characterize_window_min(cores=3, window=8, outputs=24,
                                      with_sync=False)
    assert with_sync.results == without.results


def test_window_min_alignment_is_high_with_recovery():
    """Lock-step recovery keeps replicas broadcasting."""
    report = characterize_window_min(cores=3, window=16, outputs=48)
    assert report.alignment > 0.5
    assert report.im_broadcast_fraction > 0.3


def test_window_min_sync_overhead_shrinks_with_window():
    """Coarser regions -> lower runtime overhead (paper: ~1.65 %)."""
    fine = characterize_window_min(cores=3, window=8, outputs=32)
    coarse = characterize_window_min(cores=3, window=32, outputs=32)
    assert coarse.sync_runtime_overhead < fine.sync_runtime_overhead
    assert coarse.sync_runtime_overhead < 0.03


def test_window_min_single_core_has_no_broadcast():
    report = characterize_window_min(cores=1, window=8, outputs=16)
    assert report.im_broadcast_fraction == 0.0


def test_window_min_parameter_validation():
    with pytest.raises(ValueError):
        window_min_kernel(cores=0)
    with pytest.raises(ValueError):
        window_min_kernel(window=1)


def test_barrier_pipeline_multi_round_correctness():
    report = characterize_barrier_pipeline(producers=3, rounds=6)
    assert report.consumer_sum == report.expected_sum
    # Two barriers per round, every core sleeps at most once per barrier.
    assert report.point_fires == 2 * 6
    assert report.sleeps <= 2 * 6 * 4


def test_barrier_pipeline_scales_with_producers():
    small = characterize_barrier_pipeline(producers=2, rounds=4)
    large = characterize_barrier_pipeline(producers=5, rounds=4)
    assert small.consumer_sum == small.expected_sum
    assert large.consumer_sum == large.expected_sum


def test_barrier_pipeline_validation():
    import repro.kernels.sources as sources
    with pytest.raises(ValueError):
        sources.barrier_pipeline_kernel(producers=0)


def test_kernel_that_does_not_halt_raises_a_typed_error(monkeypatch):
    """Cut off by the cycle bound, a run raises ``SimulationError``
    naming the kernel, the cycle and the cores that have not halted."""
    monkeypatch.setattr(characterize, "_MAX_CYCLES", 50)
    with pytest.raises(SimulationError, match=r"^window-min kernel did not "
                       r"halt by cycle 50: cores 0, 1, 2 not halted$"):
        characterize_window_min(cores=3, window=8, outputs=4)
    with pytest.raises(SimulationError, match=r"^barrier pipeline kernel "
                       r"did not halt by cycle 50: cores 0, 1, 2, 3 not "
                       r"halted$"):
        characterize_barrier_pipeline(producers=3, rounds=2)
