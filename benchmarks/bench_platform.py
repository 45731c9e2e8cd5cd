"""Platform microbenchmarks: simulator, tool-chain and DSP throughput.

Not a paper artifact — these track the performance of the reproduction
itself (cycle-level simulation rate, assembler speed, kernel runs, DSP
throughput) so regressions in the substrate are visible.

Run with::

    pytest benchmarks/bench_platform.py --benchmark-only
    python benchmarks/bench_platform.py   # emit BENCH_platform.json
"""

from repro.hw import System
from repro.isa.assembler import assemble
from repro.kernels import (
    characterize_barrier_pipeline,
    characterize_window_min,
    mac_kernel,
    window_min_kernel,
)
from repro.dsp import MorphologicalFilter
from repro.signals import cse_like_record

_SPIN = """
main:
    li r1, 2000
loop:
    addi r1, r1, -1
    bnez r1, loop
    halt
"""


def test_cycle_sim_throughput(benchmark):
    """Cycles per second of the cycle-accurate single-core platform."""
    image = assemble(_SPIN)

    def run():
        system = System.singlecore()
        system.load(image)
        system.run(20_000)
        return system.cycle

    cycles = benchmark(run)
    assert cycles > 4000


def test_multicore_sim_throughput(benchmark):
    """Eight replicated cores in lock-step (broadcast fast path)."""
    entries = "\n".join(f".entry {core}, main" for core in range(8))
    image = assemble(entries + _SPIN)

    def run():
        system = System.multicore()
        system.load(image)
        system.run(20_000)
        return system.activity()

    activity = benchmark(run)
    assert activity.im_broadcast_fraction > 0.8


def test_assembler_throughput(benchmark):
    """Assemble a ~2000-line source."""
    body = "\n".join(f"    addi r1, r1, {i % 7}" for i in range(2000))
    source = f"main:\n{body}\n    halt"
    image = benchmark(assemble, source)
    assert image.code_words == 2001


def test_kernel_window_min(benchmark):
    report = benchmark(characterize_window_min, 3, 16, 32)
    assert report.alignment > 0.4


def test_kernel_barrier_pipeline(benchmark):
    report = benchmark(characterize_barrier_pipeline, 3, 6)
    assert report.consumer_sum == report.expected_sum


def test_kernel_sources_build(benchmark):
    source = benchmark(window_min_kernel, 3, 32, 64, True)
    assert "sinc" in source
    assert "mul" in mac_kernel()


def test_dsp_filter_throughput(benchmark):
    """Morphological filtering of 30 s of one lead."""
    record = cse_like_record(duration_s=30.0, num_leads=1)
    mf = MorphologicalFilter(fs=record.fs)
    filtered = benchmark(mf.process, record.leads[0])
    assert len(filtered) == record.num_samples


def main(argv=None) -> int:
    """Plain-script mode: replay the campaign, emit BENCH_platform.json."""
    from repro.sweep import bench_main

    return bench_main("platform", argv)


if __name__ == "__main__":
    raise SystemExit(main())
