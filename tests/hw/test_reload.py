"""Reloading a system leaves nothing of the earlier image behind.

After ``load`` the system must behave as a fresh one that only ever
loaded the new image: cores the new image does not enter, DM accesses
left waiting for a grant and the crossbars' round-robin pointers all
start over.  Only ``cycle`` keeps counting (see
``test_determinism.test_reload_resets_state_and_counters``).
"""

import dataclasses

import pytest

from repro.hw.system import System
from repro.isa.assembler import assemble
from repro.kernels.sources import RESULT_BASE, window_min_kernel

# Every core stores to and loads from its own word of one shared bank,
# forever: DM conflicts on every access.
_HAMMER = "".join(f".entry {core}, main\n" for core in range(8)) + """
main:
    li   r5, 0x7F20
    lw   r6, 0(r5)
    slli r4, r6, 4
    li   r3, 0x800
    add  r4, r4, r3
loop:
    sw   r6, 0(r4)
    lw   r1, 0(r4)
    j    loop
"""


def _window_min(cores: int) -> str:
    return window_min_kernel(cores=cores, window=4, outputs=6)


def _after(system: System, source: str, max_cycles: int) -> System:
    system.load(assemble(source))
    system.run(max_cycles)
    return system


@pytest.mark.parametrize("first, cut, second", [
    (_window_min(3), 200_000, 2),
    (_window_min(8), 200_000, 2),
    (_window_min(2), 200_000, 6),
    (_HAMMER, 57, 2),
], ids=["3to2", "8to2", "2to6", "cut-hammer-to-2"])
def test_reload_matches_a_fresh_system(first, cut, second):
    reloaded = _after(System.multicore(num_cores=8), first, cut)
    reloaded = _after(reloaded, _window_min(second), 200_000)
    fresh = _after(System.multicore(num_cores=8), _window_min(second),
                   200_000)
    assert reloaded.all_halted and fresh.all_halted
    got = dataclasses.asdict(reloaded.activity())
    want = dataclasses.asdict(fresh.activity())
    del got["cycles"], want["cycles"]
    assert got == want
    assert [reloaded.dm_peek(RESULT_BASE + core) for core in range(second)] \
        == [fresh.dm_peek(RESULT_BASE + core) for core in range(second)]


def test_hammer_leaves_accesses_waiting():
    """The cut run above does leave DM accesses waiting for a grant."""
    system = _after(System.multicore(num_cores=8), _HAMMER, 57)
    assert any(effect is not None for effect in system._pending)
