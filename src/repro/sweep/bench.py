"""Benchmark emission: replay BENCH campaigns and write artifacts.

The benchmark harness (``benchmarks/bench_*.py`` plain-script mode and
``benchmarks/run_all.py``) funnels through this module: each bench
replays its campaign from :data:`repro.sweep.specs.BENCH_SPECS` and
writes one ``BENCH_<name>.json`` document in the shared
``repro-bench/1`` schema; :func:`run_all_benches` additionally merges
everything into ``BENCH_all.json`` — the file the CI regression gate
reads.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..store import write_json
from .artifacts import bench_payload, merge_bench
from .cache import ResultCache
from .engine import run_sweep
from .specs import BENCH_SPECS


def run_bench(
    name: str,
    out_dir: str | Path = ".",
    workers: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
) -> tuple[dict, Path]:
    """Replay one BENCH campaign and write its artifact (``cache``:
    see :func:`~repro.sweep.engine.run_sweep`).

    Returns:
        ``(payload, path)`` — the BENCH document and where it landed.

    Raises:
        ValueError: unknown bench name.
    """
    try:
        spec = BENCH_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench {name!r}; choose from {sorted(BENCH_SPECS)}"
        ) from None
    result = run_sweep(spec, workers=workers, cache=cache, force=force)
    payload = bench_payload(result)
    return payload, write_json(Path(out_dir) / f"BENCH_{name}.json", payload)


def run_all_benches(
    out_dir: str | Path = ".",
    workers: int = 1,
    names: tuple[str, ...] | None = None,
    cache: ResultCache | None = None,
    force: bool = False,
) -> tuple[dict, Path]:
    """Replay every BENCH campaign and write the merged artifact.

    Returns:
        ``(merged payload, path of BENCH_all.json)``.
    """
    payloads: dict[str, dict] = {}
    for name in names if names is not None else sorted(BENCH_SPECS):
        payload, _ = run_bench(
            name,
            out_dir=out_dir,
            workers=workers,
            cache=cache,
            force=force,
        )
        payloads[name] = payload
    merged = merge_bench(payloads)
    return merged, write_json(Path(out_dir) / "BENCH_all.json", merged)


def _describe(payload: dict) -> str:
    cache_stats = payload["cache"]
    return (
        f"BENCH_{payload['name']}: {payload['points']} point(s), "
        f"{payload['wall_s']:.2f} s wall, "
        f"{payload['sim_s_per_s']:.1f} simulated-s/s, "
        f"cache {cache_stats['hits']}/{cache_stats['misses']} hit/miss"
    )


def bench_main(name: str, argv: list[str] | None = None) -> int:
    """Shared plain-script entry point of one ``bench_*`` file."""
    parser = argparse.ArgumentParser(
        description=f"emit BENCH_{name}.json via the sweep subsystem"
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        help="where to write the artifact (default: cwd)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for cache misses (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: $REPRO_SWEEP_CACHE "
        "or ~/.cache/repro-sweep)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable cache reads and writes",
    )
    parser.add_argument(
        "--force", action="store_true", help="re-execute every point"
    )
    args = parser.parse_args(argv)
    payload, path = run_bench(
        name,
        out_dir=args.out_dir,
        workers=args.workers,
        cache=None if args.no_cache else ResultCache(root=args.cache_dir),
        force=args.force,
    )
    print(_describe(payload))
    print(f"wrote {path}")
    return 0
