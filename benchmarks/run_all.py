"""Shared benchmark entry point: run every bench on the BENCH schema.

Replays every campaign in :data:`repro.sweep.specs.BENCH_SPECS`,
writes one ``BENCH_<name>.json`` per bench plus the merged
``BENCH_all.json`` the CI regression gate consumes.  The merged
document also records ``loc``, the line count of
``src/repro/**/*.py``, which the regression gate holds to a ceiling.

Run with::

    python benchmarks/run_all.py --out-dir bench-out --workers 2
"""

import argparse
import sys
from pathlib import Path

import repro
from repro.store import write_json
from repro.sweep import BENCH_SPECS, ResultCache, run_all_benches


def source_loc() -> int:
    """Lines in ``src/repro/**/*.py`` (newline count, as ``wc -l``)."""
    root = Path(repro.__file__).resolve().parent
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run every benchmark, emit BENCH_*.json artifacts"
    )
    parser.add_argument(
        "--out-dir", default=".", help="artifact directory (default: cwd)"
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
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="NAME",
        choices=sorted(BENCH_SPECS),
        help="run only these benches (default: all)",
    )
    args = parser.parse_args(argv)
    merged, path = run_all_benches(
        out_dir=args.out_dir,
        workers=args.workers,
        names=None if args.only is None else tuple(args.only),
        cache=None if args.no_cache else ResultCache(root=args.cache_dir),
        force=args.force,
    )
    merged["loc"] = source_loc()
    write_json(path, merged)
    for name, payload in merged["benches"].items():
        print(
            f"  {name:<10} {payload['points']:3d} point(s)  "
            f"{payload['wall_s']:7.2f} s  "
            f"{payload['sim_s_per_s']:9.1f} sim-s/s  "
            f"cache {payload['cache']['hits']}/"
            f"{payload['cache']['misses']}"
        )
    print(
        f"total: {merged['points']} point(s), "
        f"{merged['wall_s']:.2f} s wall, "
        f"{merged['sim_s_per_s']:.1f} simulated-s/s, "
        f"{merged['loc']} source line(s)"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
