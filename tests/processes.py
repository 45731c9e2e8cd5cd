"""Child processes as the operating system sees them.

``multiprocessing.active_children()`` lists only the processes that
:mod:`multiprocessing` started, so it cannot see the children
:mod:`repro.parallel` forks; these helpers ask the kernel instead.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)


def children() -> set[int]:
    """Pids of this process's children, running or not yet reaped."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as listing:
            pids.update(int(pid) for pid in listing.read().split())
    return pids


_PRELUDE = """\
import json, os, signal, sys, time

MAIN = os.getpid()


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)

"""

#: Calls ``run()``, which must raise, and prints as JSON what it
#: raised, how long that took and whether any child process is left
#: (``waitpid`` raises ``ChildProcessError`` only when there is none,
#: running or unreaped).
_EPILOGUE = """
start = time.perf_counter()
try:
    run()
    raised = None
except Exception as error:
    raised = error
seconds = time.perf_counter() - start
try:
    os.waitpid(-1, os.WNOHANG)
    no_child = False
except ChildProcessError:
    no_child = True
print(json.dumps({
    "raised": type(raised).__name__, "message": str(raised),
    "payloads": list(getattr(raised, "payloads", ())),
    "seconds": seconds, "no_child": no_child}))
"""


def run_fresh(code: str, timeout: float = 20.0) -> dict:
    """Run module ``code`` that defines ``run()`` in a fresh
    interpreter and report how ``run()`` ended (see ``_EPILOGUE``).

    The interpreter is killed after ``timeout`` seconds, so a hang
    fails the calling test instead of stalling the suite.  ``MAIN``
    (the interpreter's pid) and ``kill_self()`` are predefined.
    """
    script = _PRELUDE + textwrap.dedent(code) + _EPILOGUE
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.splitlines()[-1])
