"""The repository benchmark: one workload, sampled in fresh interpreters.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-exact --seed 1 \\
        --seconds 25 --trace 0

Each sample is one ``child.py`` process: interpreter start, set-up
(``import repro.eval.__main__``, the workload's inputs), one pass of
the workload's public calls, then output checks.  Samples run one
after another, each workload pass using at most two worker processes,
until ``--seconds`` is spent; a set-up-only child follows each one, so
``setup_s`` has twice the samples.  Every timing is the median over
the samples.  ``throughput`` and ``setup_s`` count reference seconds,
host time scaled by the host speed a yardstick saw next to it (see
``pace.py``); ``throughput`` is the work over the sum of each public
call's median reference time.  The host-second figures are printed
beside them.

With ``--trace 0`` the last line of output carries the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` the samples
alternate untraced and traced, and it carries the per-layer metrics
(medians over the traced samples) plus the tracing
overhead.  The lines before it print the workload's own figures by
name (its throughput, ``fail_frac``, accuracy, digest of simulated
statistics).

Caches never carry over between samples: each child gets an empty
temporary directory for checkpoints and the sweep cache, and
``REPRO_COMPUTE_CACHE`` is removed from its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import pace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

#: Samples taken even when ``--seconds`` is already spent.
MIN_SAMPLES = 3

#: A run stops starting samples after this many seconds, whatever
#: ``--seconds`` says, so it always ends well within three minutes.
HARD_STOP_S = 140.0

#: Per-layer counters of the modelled platform: identical in every
#: traced sample of one seed, or the simulation is not deterministic.
MODELLED = ("hw.instructions", "hw.gated_cycles", "hw.sync.point_fires",
            "hw.im_broadcast_frac")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paced_rate(records: list[dict]) -> float:
    """Work per reference second, each public call at its median.

    Samples of one seed make the same calls in the same order, so the
    medians line up call by call; a slow segment in one sample moves
    only its own call's median.
    """
    per_call = zip(*(r["op_ref_s"] for r in records))
    work = statistics.median(r["work"] for r in records)
    return work / sum(statistics.median(c) for c in per_call)


def child_env(root: str, tmp: str) -> dict:
    """The children's environment: the checkout's ``src`` first, no
    compute cache, an empty sweep cache and temporary files under
    ``tmp``."""
    env = dict(os.environ)
    path = [os.path.join(root, "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.pop("REPRO_COMPUTE_CACHE", None)
    env["REPRO_SWEEP_CACHE"] = os.path.join(tmp, "sweep-cache")
    env["TMPDIR"] = tmp
    return env


def spawn(args, env: dict, tmp: str, index: int, traced: bool,
          setup_only: bool, timeout: float) -> dict:
    """Run one child to completion; its JSON record (or a failure).

    The child runs in its own session, so a timeout kills its pool
    workers along with it.
    """
    work_dir = os.path.join(tmp, f"sample-{index}")
    os.makedirs(work_dir)
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--tmp", work_dir, "--trace", "1" if traced else "0"]
    if setup_only:
        command.append("--setup-only")
    spawn_mark = pace.mark_here()
    spawn_t = time.perf_counter()
    command += ["--spawn-t", repr(spawn_t), "--spawn-mark", repr(spawn_mark)]
    try:
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return {"error": f"sample {index} timed out"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"error": f"sample {index} exited {proc.returncode}: "
                         f"{tail[0]}"}
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"sample {index} printed no record"}
    record["traced"] = traced
    return record


def sample(args, env: dict, tmp: str) -> tuple[list[dict], list[dict]]:
    """Spawn samples until the time budget is spent.

    Returns the workload samples and the set-up-only samples.  Each
    workload sample is followed by one set-up-only child, which doubles
    the set-up samples for about a tenth of the run.  The first child
    (set-up only, discarded) fills the bytecode cache.
    """
    warm = spawn(args, env, tmp, 0, False, True, HARD_STOP_S)
    if "error" in warm:
        raise RuntimeError(f"set-up failed: {warm['error']}")
    records: list[dict] = []
    probes: list[dict] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        round_t = time.perf_counter()
        index = 2 * len(records) + 1
        timeout = HARD_STOP_S + 30.0 - (round_t - start)
        records.append(spawn(args, env, tmp, index, traced, False, timeout))
        if "error" in records[-1]:
            break
        probes.append(spawn(args, env, tmp, index + 1, False, True, timeout))
        if "error" in probes[-1]:
            records.append(probes.pop())
            break
        now = time.perf_counter()
        rounds.append(now - round_t)
        enough = len(records) >= MIN_SAMPLES * (2 if args.trace else 1)
        if now - start > HARD_STOP_S:
            break
        if enough and now - start + statistics.median(rounds) > args.seconds:
            break
    return records, probes


def summarise(args, records: list[dict], probes: list[dict],
              bench: dict) -> dict:
    """Aggregate samples; print the workload's figures; the result."""
    errors = [r["error"] for r in records if "error" in r]
    good = [r for r in records if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    attempted = sum(r["attempted"] for r in good) + len(errors)
    failed = sum(r["failed"] for r in good) + len(errors)
    digests = {r["digest"] for r in good}
    problems = list(errors)
    for record in good:
        problems.extend(record["messages"][:3])
    if len(digests) > 1:
        problems.append(f"samples of one seed disagree: {sorted(digests)}")
    modelled = {tuple(r["layers"][k] for k in MODELLED) for r in traced}
    if len(modelled) > 1:
        problems.append("modelled platform counters differ across samples")
    correct = not problems and failed == 0 and bool(plain)

    rate_name, rate_unit = workloads.WORKLOADS[args.workload].rate
    rates = [r["work"] / r["wall_s"] for r in plain if r["wall_s"] > 0]
    paced = [r for r in plain if sum(r["op_ref_s"]) > 0]
    speeds = [r["host_speed"] for r in plain]
    setups = [r["setup_s"] for r in plain + probes]
    setup_refs = [r["setup_ref_s"] for r in plain + probes]
    rss = [r["peak_rss_mb"] for r in plain]
    info = good[0]["info"] if good else {}
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} "
          f"untraced + {len(traced)} traced samples in fresh interpreters")
    if good:
        print(f"  inputs {json.dumps(good[0]['inputs'])}")
    if paced:
        print(f"  {'throughput':<16} {paced_rate(paced):.6g} {rate_unit} "
              f"(reference s; each public call at its median, "
              f"n={len(paced)})")
    rows = [("sample_rate", [r["work"] / sum(r["op_ref_s"]) for r in paced],
             f"{rate_unit} (reference s)"),
            (rate_name, rates, f"{rate_unit} (host s)"),
            ("host_speed", speeds, "x reference"),
            ("setup_s", setup_refs, "s (reference)"),
            ("setup_host_s", setups, "s (host)"),
            ("peak_rss_mb", rss, "MB")]
    for name, values, unit in rows:
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"  {name:<16} median {q2:.6g} {unit}  "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    print(f"  {'fail_frac':<16} {failed / attempted if attempted else 0:.6g}"
          f"  ({failed} of {attempted} operations failed)")
    for key, value in sorted(info.items()):
        values = [r["info"][key] for r in plain if key in r["info"]]
        if len(set(values)) > 1:
            q1, q2, q3 = quartiles(values)
            print(f"  {key:<16} median {q2:.6g}  "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        else:
            print(f"  {key:<16} {value}")
    print(f"  {'digest':<16} {', '.join(sorted(digests))}")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")

    metrics: dict = {}
    if args.trace:
        names = bench["per_layer"]
        for name in [m["name"] for m in names]:
            values = [r["layers"][name] for r in traced
                      if name in r["layers"]]
            if values:
                metrics[name] = statistics.median(values)
        walls = [r["wall_s"] for r in plain]
        traced_walls = [r["wall_s"] for r in traced]
        if walls and traced_walls:
            metrics["trace.overhead_frac"] = (
                statistics.median(traced_walls) / statistics.median(walls)
                - 1.0)
        if traced:
            roots = traced[0]["roots"]
            named = ", ".join(
                f"{name} "
                f"{statistics.median(r['roots'][name] for r in traced):.4f} s"
                for name in sorted(roots))
            startup = metrics.get("trace.uncovered.startup_s", 0)
            print(f"  uncovered: start-up {startup:.4f} s; "
                  f"entry-call self time: {named}")
    else:
        names = bench["end_to_end"]
        if paced:
            metrics["throughput"] = paced_rate(paced)
            metrics["setup_s"] = statistics.median(setup_refs)
            metrics["peak_rss_mb"] = statistics.median(rss)
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        correct = False
        print(f"  FAILED: no value for {', '.join(missing)}")
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in names if m["name"] in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            bench = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("run.py: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2

    tmp_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        records, probes = sample(args, child_env(root, tmp), tmp)
        result = summarise(args, records, probes, bench)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
