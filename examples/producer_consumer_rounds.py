"""Multi-round producer-consumer pipelines from the paper's ISE alone.

The paper's primitives are one-shot by design (a counter returning to
zero fires once).  This example shows how *reusable* rendezvous are
still expressible with nothing but SINC / SDEC / SLEEP: two sync
points used in alternation, where each core pre-registers on the next
epoch before waiting on the current one (a sense-reversing barrier).

Both levels of the reproduction run the same protocol:

1. behavioural level — :class:`repro.core.SenseBarrier` over the
   synchronizer model;
2. machine level — the ``barrier_pipeline_kernel`` assembly program on
   the cycle-accurate platform, with three producers feeding a
   consumer for several rounds.

Run with::

    python examples/producer_consumer_rounds.py
"""

from repro.core.primitives import SenseBarrier, SyncDomain
from repro.kernels import characterize_barrier_pipeline


def behavioural_demo() -> None:
    """Drive the synchronizer model through three barrier epochs."""
    domain = SyncDomain(num_cores=4)
    barrier = SenseBarrier(domain, point_even=0, point_odd=1,
                           parties=[0, 1, 2, 3])
    barrier.prime()
    print("behavioural sense barrier, 4 cores, 3 epochs:")
    for epoch in range(3):
        slept = [barrier.arrive(core) for core in (0, 1, 2)]
        last = barrier.arrive(3)
        print(f"  epoch {epoch}: cores 0-2 gated={slept}, "
              f"last arrival gated={last} (latch fall-through)")
        assert barrier.everyone_released()


def machine_demo() -> None:
    """Run the assembly pipeline on the cycle-accurate platform."""
    report = characterize_barrier_pipeline(producers=3, rounds=8)
    print("\nassembly producer-consumer pipeline (cycle-accurate):")
    print(f"  3 producers x 8 rounds in {report.cycles} cycles")
    print(f"  consumer checksum {report.consumer_sum} "
          f"(expected {report.expected_sum})")
    print(f"  {report.point_fires} synchronization events "
          f"(2 barriers/round), {report.sleeps} SLEEPs executed")


def main() -> None:
    behavioural_demo()
    machine_demo()


if __name__ == "__main__":
    main()
