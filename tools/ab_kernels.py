"""In-process interleaved A/B of perfbench's kernel pass.

Times the cycle-level part of perfbench's ``paper-kernels`` workload
(four window-min runs and two barrier pipelines, their shapes drawn by
``cycle_inputs`` in ``perfbench/workloads.py``) on several trees of the
``repro`` package in one interpreter.  Each tree is copied under a
package name of its own, so the trees load side by side.  An untimed
pass checks every tree against the first: the same reports, and for
each run the same ``System.activity()`` and per-core ``CoreStats``,
since no report shows the stall and crossbar counters.  Each round
runs one pass of every tree, and the tree that goes first rotates from
round to round, so a swing in host speed falls on all trees alike.
Printed per tree: the median pass in ms, the median of the per-round
ratios of the first tree's time to this tree's (above 1 is faster than
the first tree), and the rounds in which this tree beat the first.

Run from the repository root, for instance against a copy of the
parent commit::

    python tools/ab_kernels.py parent=../parent/src/repro \\
        change=src/repro --seed 13 --rounds 24
"""

import argparse
import dataclasses
import importlib
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" \
    / "workloads.py"


def load_workloads():
    """``perfbench/workloads.py`` as a module (it imports no ``repro``)."""
    spec = importlib.util.spec_from_file_location("ab_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(tree: Path, package: str, into: Path):
    """Copy ``tree`` to ``into/package``; its ``kernels.characterize``."""
    if not (tree / "__init__.py").is_file():
        raise SystemExit(f"{tree}: not a package directory")
    shutil.copytree(tree, into / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.kernels.characterize")


def kernel_pass(characterize, inputs: dict) -> list:
    """One kernel pass, as perfbench's ``cycle_run`` makes it."""
    reports = [characterize.characterize_window_min(
        cores=cores, window=window, outputs=outputs)
        for cores, window, outputs in inputs["window_min"]]
    reports += [characterize.characterize_barrier_pipeline(
        producers=producers, rounds=rounds)
        for producers, rounds in inputs["barrier"]]
    return [dataclasses.asdict(report) for report in reports]


def checked_pass(characterize, inputs: dict) -> tuple[list, list]:
    """One kernel pass; its reports, and the counters of every run."""
    systems = []
    base = characterize.System

    class Recorded(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    characterize.System = Recorded
    try:
        reports = kernel_pass(characterize, inputs)
    finally:
        characterize.System = base
    return reports, [(dataclasses.asdict(system.activity()),
                      [dataclasses.asdict(core.stats)
                       for core in system.cores]) for system in systems]


def parse_tree(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected name=path/to/src/repro")
    return name, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="interleaved in-process A/B of perfbench's kernel pass")
    parser.add_argument("trees", nargs="+", type=parse_tree,
                        metavar="name=path/to/src/repro",
                        help="repro package trees; the first is the base")
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench seed of the kernel shapes "
                        "(default: 1)")
    parser.add_argument("--rounds", type=int, default=24,
                        help="timed rounds, one pass per tree each "
                        "(default: 24)")
    args = parser.parse_args(argv)
    names = [name for name, _ in args.trees]
    if len(set(names)) != len(names):
        parser.error("tree names must be distinct")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    inputs = load_workloads().cycle_inputs(args.seed)
    with tempfile.TemporaryDirectory(prefix="ab-kernels-") as tmp:
        sys.path.insert(0, tmp)
        modules = [load_tree(tree, f"ab_tree{number}", Path(tmp))
                   for number, (_, tree) in enumerate(args.trees)]
        # An untimed pass of each tree warms it up and checks its output.
        base = checked_pass(modules[0], inputs)
        for name, module in zip(names[1:], modules[1:]):
            reports, counters = checked_pass(module, inputs)
            if reports != base[0]:
                raise SystemExit(f"{name}: reports differ from {names[0]}")
            if counters != base[1]:
                raise SystemExit(f"{name}: counters differ from {names[0]}")
        times = [[] for _ in modules]
        for round_ in range(args.rounds):
            for step in range(len(modules)):
                number = (round_ + step) % len(modules)
                start = time.perf_counter()
                kernel_pass(modules[number], inputs)
                times[number].append(time.perf_counter() - start)
    print(f"seed {args.seed}, {args.rounds} rounds: "
          f"{len(inputs['window_min'])} window-min and "
          f"{len(inputs['barrier'])} barrier runs per pass")
    print(f"{'tree':<12} {'median ms':>10} {'ratio':>7} {'won':>7}")
    for name, own in zip(names, times):
        ratios = [first / mine for first, mine in zip(times[0], own)]
        won = sum(ratio > 1 for ratio in ratios)
        print(f"{name:<12} {1e3 * statistics.median(own):>10.1f} "
              f"{statistics.median(ratios):>7.3f} "
              f"{'-' if own is times[0] else f'{won}/{args.rounds}':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
