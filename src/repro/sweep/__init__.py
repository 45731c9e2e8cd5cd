"""Cached, sharded experiment sweeps.

Declare a campaign as a :class:`SweepSpec` (axes over applications,
platform parameters, VFS points, fleet scenarios and sync protocols),
execute it with :func:`run_sweep` sharded over forked processes,
and get every point's metrics back in deterministic order — with each
result stored in a content-addressed on-disk cache so re-runs and
incremental sweeps only pay for new work.  :mod:`repro.sweep.artifacts`
turns results into the ``BENCH_<name>.json`` schema the CI regression
gate tracks.
"""

from .artifacts import (
    BENCH_SCHEMA,
    bench_payload,
    merge_bench,
    percentile_axes,
    sweep_rows,
    write_csv,
)
from .bench import bench_main, run_all_benches, run_bench
from .cache import ResultCache, code_fingerprint, default_cache_dir
from .engine import PointResult, SweepResult, run_sweep
from .runners import HEADLINE_METRICS, RUNNERS, RunnerError, get_runner
from .spec import (
    SpecError,
    SweepSpec,
    canonical_point,
    expand,
    point_key,
    spec_from_mapping,
    stable_seed,
)
from .specs import BENCH_SPECS, SPECS, generated_app_axis, get_spec

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SPECS",
    "HEADLINE_METRICS",
    "PointResult",
    "RUNNERS",
    "ResultCache",
    "RunnerError",
    "SPECS",
    "SpecError",
    "SweepResult",
    "SweepSpec",
    "bench_main",
    "bench_payload",
    "canonical_point",
    "run_all_benches",
    "run_bench",
    "code_fingerprint",
    "default_cache_dir",
    "expand",
    "generated_app_axis",
    "get_runner",
    "get_spec",
    "merge_bench",
    "percentile_axes",
    "point_key",
    "run_sweep",
    "spec_from_mapping",
    "stable_seed",
    "sweep_rows",
    "write_csv",
]
