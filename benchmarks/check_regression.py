"""CI benchmark-regression gate.

Compares a freshly produced ``BENCH_all.json`` against the checked-in
baseline (``benchmarks/baseline.json``) and fails when any bench's
simulated-seconds-per-second throughput regresses by more than the
tolerance (default 30 %).  The baseline may also carry ``nodes_per_s``
floors (tolerance-scaled, for the streaming mega-fleet) and
``max_rss_mb`` ceilings (a hard bound — the bounded-memory assertion
of the streaming executor).  Benches
emitted outside ``run_all.py`` join the gate via ``--merge``; a
``repro-cover/1`` artifact supplied via ``--cover`` is held to the
baseline's ``covered_bins`` floor (hard, no tolerance — the fuzz
campaign is byte-deterministic), and the merged document's ``loc``
(source line count) to the baseline's ``loc`` ceiling (hard too —
shrinkage a change achieved stays).

The baseline records *conservative* throughput floors (well below a
typical developer machine) so the gate only trips on genuine
regressions — an accidentally quadratic hot path, a sweep that stopped
caching — not on CI-runner jitter.

The benches run without a ``repro.obs`` collector (nothing activates
one), so the throughput floors double as the no-op overhead gate of
the instrumentation layer: if the default-off recording calls ever
stop being cheap early returns, ``sim_s_per_s`` drops and this gate
trips.  Refresh the baseline with::

    python benchmarks/run_all.py --out-dir bench-out --no-cache
    python benchmarks/check_regression.py bench-out/BENCH_all.json \
        benchmarks/baseline.json --update

Run with::

    python benchmarks/check_regression.py bench-out/BENCH_all.json \
        benchmarks/baseline.json
"""

import argparse
import json
import os
import sys

#: Default baseline location (next to this script).
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baseline.json"
)

#: Fraction of baseline throughput a bench may lose before failing.
DEFAULT_TOLERANCE = 0.30

#: Margin applied by ``--update``: the recorded floor is this fraction
#: of the measured throughput, absorbing machine-to-machine spread
#: (CI runners are routinely several times slower than a dev box).
UPDATE_MARGIN = 0.25

#: Peak-RSS ceiling ``--update`` records for benches that report one.
#: A fixed requirement, not machine-derived: the ~100k-node streaming
#: fleet stays a couple dozen MB over interpreter baseline, while
#: holding per-node results would cost hundreds of MB.
RSS_CEILING_MB = 256.0


def check(
    merged: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    cover: dict | None = None,
) -> list[str]:
    """Return a list of failure messages (empty = gate passes).

    A bench whose payload shows cache hits is rejected outright: its
    ``sim_s_per_s`` measures cache lookups, not simulation, so
    comparing it against a cold baseline would be meaningless.
    """
    failures = []
    benches = merged.get("benches", {})
    for name, floor in sorted(baseline.get("sim_s_per_s", {}).items()):
        payload = benches.get(name)
        if payload is None:
            failures.append(f"{name}: missing from BENCH_all.json")
            continue
        hits = payload.get("cache", {}).get("hits", 0)
        if hits:
            failures.append(
                f"{name}: {hits} cache hit(s) — the gate needs a cold "
                f"run (use --no-cache)"
            )
            continue
        measured = payload.get("sim_s_per_s", 0.0)
        allowed = floor * (1.0 - tolerance)
        if measured < allowed:
            failures.append(
                f"{name}: {measured:.1f} sim-s/s < {allowed:.1f} "
                f"(baseline {floor:.1f}, tolerance {tolerance:.0%})"
            )
    for name, floor in sorted(baseline.get("nodes_per_s", {}).items()):
        payload = benches.get(name)
        if payload is None:
            failures.append(f"{name}: missing from BENCH_all.json")
            continue
        measured = payload.get("nodes_per_s", 0.0)
        allowed = floor * (1.0 - tolerance)
        if measured < allowed:
            failures.append(
                f"{name}: {measured:.0f} nodes/s < {allowed:.0f} "
                f"(baseline {floor:.0f}, tolerance {tolerance:.0%})"
            )
    # Peak-RSS ceilings are hard bounds too: the streaming executor's
    # whole point is memory that does not scale with fleet size, so a
    # breach means per-node state is accumulating somewhere.
    for name, ceiling in sorted(baseline.get("max_rss_mb", {}).items()):
        payload = benches.get(name)
        if payload is None:
            failures.append(f"{name}: missing from BENCH_all.json")
            continue
        measured = payload.get("peak_rss_mb", 0.0)
        if measured > ceiling:
            failures.append(
                f"{name}: peak RSS {measured:.0f} MB > ceiling "
                f"{ceiling:.0f} MB (memory no longer bounded)"
            )
    # Covered-bin floors are hard bounds with no tolerance: the fuzz
    # campaign is byte-deterministic, so covering fewer bins than the
    # baseline records means the steering (or the generator's shape
    # knobs) genuinely lost reach, not that a runner was slow.
    for name, floor in sorted(baseline.get("covered_bins", {}).items()):
        if cover is None:
            failures.append(
                f"{name}: no repro-cover/1 artifact supplied "
                f"(pass --cover)"
            )
            continue
        measured = cover.get("covered", 0)
        if measured < floor:
            failures.append(
                f"{name}: {measured} covered bin(s) < baseline "
                f"{floor} (fuzz campaign lost coverage)"
            )
    # The source line ceiling is a hard bound as well: code removed by
    # one change must not silently grow back in the next.
    ceiling = baseline.get("loc")
    if ceiling is not None:
        measured = merged.get("loc")
        if measured is None:
            failures.append("loc: missing from BENCH_all.json")
        elif measured > ceiling:
            failures.append(
                f"loc: {measured} source line(s) > ceiling {ceiling} "
                "(raise it in baseline.json only on purpose)"
            )
    return failures


def update_baseline(merged: dict, cover: dict | None = None) -> dict:
    """A fresh baseline document derived from a measured run.

    Throughput floors are measured-with-margin.  Covered-bin floors
    and the ``loc`` ceiling are recorded exactly — both are
    deterministic, so no margin applies.
    """
    benches = merged.get("benches", {})
    covered_bins = (
        {"cover": int(cover["covered"])} if cover is not None else {}
    )
    baseline = {
        "schema": "repro-bench-baseline/1",
        "note": (
            "conservative sim-s/s floors; refresh with "
            "check_regression.py --update"
        ),
        "sim_s_per_s": {
            name: round(payload["sim_s_per_s"] * UPDATE_MARGIN, 3)
            for name, payload in sorted(benches.items())
        },
        "nodes_per_s": {
            name: round(payload["nodes_per_s"] * UPDATE_MARGIN, 1)
            for name, payload in sorted(benches.items())
            if "nodes_per_s" in payload
        },
        "max_rss_mb": {
            name: RSS_CEILING_MB
            for name, payload in sorted(benches.items())
            if "peak_rss_mb" in payload
        },
        "covered_bins": covered_bins,
    }
    if "loc" in merged:
        baseline["loc"] = int(merged["loc"])
    return baseline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when benchmark throughput regresses"
    )
    parser.add_argument("bench", help="path to BENCH_all.json")
    parser.add_argument(
        "baseline_pos",
        nargs="?",
        default=None,
        metavar="baseline",
        help="path to baseline.json "
        "(default: the checked-in benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        dest="baseline_opt",
        help="baseline path override for local experimentation "
        "(equivalent to the positional form)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional regression (default: 0.30)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this run instead of checking",
    )
    parser.add_argument(
        "--merge",
        action="append",
        default=None,
        metavar="PATH",
        help="inject extra BENCH_<name>.json payload(s) into the merged "
        "document before checking (for benches emitted outside "
        "run_all.py, e.g. the fleet-mega streaming bench); repeatable",
    )
    parser.add_argument(
        "--cover",
        default=None,
        metavar="PATH",
        help="repro-cover/1 artifact to hold against the baseline's "
        "covered_bins floor (a hard bound: the fuzz campaign is "
        "deterministic)",
    )
    args = parser.parse_args(argv)
    if args.baseline_pos is not None and args.baseline_opt is not None:
        parser.error(
            "give the baseline either positionally or via --baseline, "
            "not both"
        )
    baseline_path = args.baseline_opt
    if baseline_path is None:
        baseline_path = args.baseline_pos
    if baseline_path is None:
        baseline_path = DEFAULT_BASELINE
    with open(args.bench, encoding="utf-8") as handle:
        merged = json.load(handle)
    cover = None
    if args.cover is not None:
        with open(args.cover, encoding="utf-8") as handle:
            cover = json.load(handle)
    if args.merge:
        benches = dict(merged.get("benches", {}))
        for path in args.merge:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            benches[payload["name"]] = payload
        merged = dict(merged)
        merged["benches"] = benches
    if args.update:
        baseline = update_baseline(merged, cover=cover)
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline refreshed: {baseline_path}")
        return 0
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = check(
        merged, baseline, tolerance=args.tolerance, cover=cover
    )
    if failures:
        print("benchmark regression gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    gates = sum(
        len(baseline.get(section, {}))
        for section in (
            "sim_s_per_s",
            "nodes_per_s",
            "max_rss_mb",
            "covered_bins",
        )
    )
    if "loc" in baseline:
        gates += 1
    print(
        f"benchmark regression gate passed ({gates} gate(s), "
        f"tolerance {args.tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
