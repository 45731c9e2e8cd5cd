"""The kernel reports at the benchmark's shapes, pinned to a golden.

The cycle differential test holds ``System``'s loop to the oracle in
``tests/hw/reference_system.py``, but both share ``load``, the
memories, the ATU and the synchronizer, so a fault in one of those
would move both sides alike. This golden pins the full
``WindowMinReport`` and ``BarrierPipelineReport`` for the shapes that
``perfbench/workloads.py`` ``cycle_inputs`` draws for seeds 1 and
2014, written out here literally.

Regenerate (only for a change that is meant to move a figure)::

    PYTHONPATH=src:. python -c "from tests.kernels.test_bench_golden \
import write_golden; write_golden()"
"""

import json
from dataclasses import asdict
from pathlib import Path

from repro.kernels import (
    characterize_barrier_pipeline,
    characterize_window_min,
)

GOLDEN = Path(__file__).parent / "golden" / "kernels_bench.json"

#: ``cycle_inputs(seed)``: window-min ``[cores, window, outputs]`` and
#: barrier ``[producers, rounds]``.
SHAPES = {
    "1": {"window_min": [[2, 6, 108], [3, 13, 59], [6, 16, 45],
                         [8, 16, 42]],
          "barrier": [[3, 28], [7, 40]]},
    "2014": {"window_min": [[2, 9, 81], [3, 13, 59], [6, 10, 65],
                            [8, 7, 80]],
             "barrier": [[3, 45], [7, 37]]},
}


def reports() -> dict:
    """Every report at ``SHAPES``, as JSON-ready mappings."""
    out = {}
    for seed, shapes in SHAPES.items():
        out[seed] = {
            "window_min": [
                asdict(characterize_window_min(
                    cores=cores, window=window, outputs=outputs))
                for cores, window, outputs in shapes["window_min"]],
            "barrier": [
                asdict(characterize_barrier_pipeline(
                    producers=producers, rounds=rounds))
                for producers, rounds in shapes["barrier"]],
        }
    return json.loads(json.dumps(out))


def write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports(), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")


def test_kernel_reports_equal_golden():
    """Every field, floats included, equals the pinned report."""
    assert reports() == json.loads(GOLDEN.read_text(encoding="utf-8"))
