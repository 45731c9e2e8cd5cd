"""Multi-round producer-consumer pipelines from the paper's ISE alone.

The paper's primitives are one-shot by design (a counter returning to
zero fires once).  This example shows how *reusable* rendezvous are
still expressible with nothing but SINC / SDEC / SLEEP: two sync
points used in alternation, where each core pre-registers on the next
epoch before waiting on the current one (a sense-reversing barrier).

Both levels of the reproduction run the same protocol:

1. behavioural level — the synchronizer model
   (:class:`repro.core.synchronizer.Synchronizer`), fed the
   instructions directly, one per cycle;
2. machine level — the ``barrier_pipeline_kernel`` assembly program on
   the cycle-accurate platform, with three producers feeding a
   consumer for several rounds.

Run with::

    python examples/producer_consumer_rounds.py
"""

from repro.core.synchronizer import SyncOp, Synchronizer
from repro.kernels import characterize_barrier_pipeline

POINTS = (0, 1)  # the barrier's two sync points, used in alternation


def issue(sync: Synchronizer, core: int, op: SyncOp, point: int) -> None:
    """One cycle in which ``core`` issues ``op`` on ``point``."""
    sync.submit(core, op, point)
    sync.end_cycle()


def arrive(sync: Synchronizer, core: int, epoch: int) -> bool:
    """One barrier arrival; returns True if the core had to sleep.

    The core pre-registers on the next epoch's point (``SINC``), then
    waits on the current one (``SDEC`` + ``SLEEP``).  The last arrival
    zeroes the counter and wakes everyone.
    """
    issue(sync, core, SyncOp.SINC, POINTS[(epoch + 1) % 2])
    issue(sync, core, SyncOp.SDEC, POINTS[epoch % 2])
    return sync.sleep(core)


def behavioural_demo() -> None:
    """Drive the synchronizer model through three barrier epochs."""
    parties = [0, 1, 2, 3]
    sync = Synchronizer(num_cores=4)
    for core in parties:  # every party registers on the first point
        sync.submit(core, SyncOp.SINC, POINTS[0])
    sync.end_cycle()
    print("behavioural sense barrier, 4 cores, 3 epochs:")
    for epoch in range(3):
        slept = [arrive(sync, core, epoch) for core in (0, 1, 2)]
        last = arrive(sync, 3, epoch)
        print(f"  epoch {epoch}: cores 0-2 gated={slept}, "
              f"last arrival gated={last} (latch fall-through)")
        assert not any(sync.is_gated(core) for core in parties)


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
