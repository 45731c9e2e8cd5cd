"""Topology families of the synthetic workload generator.

A topology is the *structural* half of a generated application: stages
(future :class:`~repro.apps.phases.PhaseSpec` instances) with replica
counts, trigger classes and producer-consumer edges.  The families
generalise the shapes of the paper's three benchmarks and of the wider
multi-core sync literature:

* ``pipeline`` — a linear chain of distinct stages (3L-MMD's
  filter -> combine -> delineate generalised to 2-4 stages, with an
  optionally replicated head);
* ``fork-join`` — a replicated worker stage feeding an aggregator,
  optionally followed by a tail stage (3L-MMD / classic fork-join);
* ``fan-in`` — several *distinct* producer stages all feeding one
  aggregator through a single multi-producer channel (heterogeneous
  sensor fusion, Baumgartner et al.'s simultaneous-event pattern);
* ``independent`` — one stage replicated with no channels at all:
  pure lock-step replicas, as in 3L-MF;
* ``random-dag`` — a layered random DAG: every stage in layer *k*
  consumes from one or two earlier stages (the adversarial family;
  shapes here exercise the mapper's rejection/repair path).

All random draws flow through the caller's :class:`random.Random`
stream in declaration order — no sets, no ``hash()`` — so topologies
are bit-reproducible across processes.

A suffix of a topology may be *triggered* (``on_abnormal``): those
stages activate per pathological beat, like RP-CLASS's delineation
chain.  Stage 0 is always streaming so every generated application
has a real-time clock requirement.

The ``random-dag`` family additionally accepts a :class:`Shape` of
*adversarial knobs* — deep chains, wide fan-in, diamond DAGs sharing
code sections across phases, triggered subgraphs — so a coverage
fuzzer (:mod:`repro.cover`) can steer generation toward structural
corners blind sampling essentially never reaches.  A default
(falsy) shape takes the exact historical draw path, so every
pre-existing ``family:seed:index`` identity stays byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

#: Shape-knob bounds: generous enough to dwarf the 8-core / 10-bank
#: platform (the whole point of the adversarial shapes) while keeping
#: generated apps small enough to simulate in a fuzz loop.
MAX_SHAPE_DEPTH = 16
MAX_SHAPE_FAN_IN = 12
MAX_SHAPE_REPLICAS = 12


@dataclass(frozen=True)
class StageSpec:
    """One structural stage of a generated application.

    Attributes:
        name: stage name (unique within the topology).
        replicas: parallel instances (a lock-step group when > 1).
        inputs: indices of the stages this stage consumes from
            (empty for source stages).
        on_abnormal: activated per pathological beat instead of
            streaming.
        shares: index of an earlier stage whose code sections this
            stage reuses verbatim (diamond DAGs re-running one
            kernel in two phases); ``None`` for private sections.
    """

    name: str
    replicas: int
    inputs: tuple[int, ...] = ()
    on_abnormal: bool = False
    shares: int | None = None


@dataclass(frozen=True)
class Shape:
    """Adversarial structure knobs for the ``random-dag`` family.

    Every knob defaults to "off"; a default-constructed shape is
    falsy and selects the historical layered-DAG draw path.  Knobs
    compose freely — ``depth`` sets the chain backbone, ``fan_in``
    appends a multi-producer fuse, ``diamond`` appends a
    section-sharing branch/join, ``triggered`` marks a suffix
    subgraph pathological-beat-driven, ``replicas`` pins the source
    stage's lock-step width.

    Raises:
        ValueError: a knob outside its bound (the message names the
            knob).
    """

    depth: int | None = None
    fan_in: int | None = None
    diamond: bool = False
    triggered: bool = False
    replicas: int | None = None

    def __post_init__(self) -> None:
        if self.depth is not None and not 2 <= self.depth <= MAX_SHAPE_DEPTH:
            raise ValueError(
                f"shape knob depth={self.depth!r} outside "
                f"[2, {MAX_SHAPE_DEPTH}]")
        if self.fan_in is not None and (
                not 2 <= self.fan_in <= MAX_SHAPE_FAN_IN):
            raise ValueError(
                f"shape knob fanin={self.fan_in!r} outside "
                f"[2, {MAX_SHAPE_FAN_IN}]")
        if self.replicas is not None and (
                not 1 <= self.replicas <= MAX_SHAPE_REPLICAS):
            raise ValueError(
                f"shape knob reps={self.replicas!r} outside "
                f"[1, {MAX_SHAPE_REPLICAS}]")

    def __bool__(self) -> bool:
        return (self.depth is not None or self.fan_in is not None
                or self.diamond or self.triggered
                or self.replicas is not None)


#: Shape-knob token grammar: canonical serialisation order and the
#: per-knob (parse, serialise) behaviour.  Bools serialise as ``1``
#: and are simply omitted when off.
SHAPE_KNOB_ORDER: tuple[str, ...] = (
    "depth", "fanin", "diamond", "trig", "reps",
)

#: Token knob name -> Shape field.
_KNOB_FIELDS = {
    "depth": "depth",
    "fanin": "fan_in",
    "diamond": "diamond",
    "trig": "triggered",
    "reps": "replicas",
}

_BOOL_KNOBS = frozenset({"diamond", "trig"})


def shape_fragment(shape: Shape) -> str:
    """Canonical ``knob=value+knob=value`` form (empty for default).

    The inverse of :func:`parse_shape`; knobs always serialise in
    :data:`SHAPE_KNOB_ORDER` so equal shapes yield byte-equal
    fragments.
    """
    parts = []
    for knob in SHAPE_KNOB_ORDER:
        value = getattr(shape, _KNOB_FIELDS[knob])
        if value is None or value is False:
            continue
        parts.append(f"{knob}=1" if knob in _BOOL_KNOBS
                     else f"{knob}={value}")
    return "+".join(parts)


def parse_shape(fragment: str, token: str = "") -> Shape:
    """Invert :func:`shape_fragment`.

    Args:
        fragment: a non-empty ``knob=value+...`` string.
        token: enclosing app token, quoted in error messages.

    Raises:
        ValueError: empty fragment, unknown knob, duplicate knob,
            non-integer value, or a value outside the knob's bound —
            always naming the offending knob.
    """
    context = f" in app token {token!r}" if token else ""
    if not fragment:
        raise ValueError(
            f"empty shape fragment{context}; expected "
            f"'knob=value+...'")
    values: dict[str, object] = {}
    for part in fragment.split("+"):
        knob, eq, value_text = part.partition("=")
        if not eq or knob not in _KNOB_FIELDS:
            raise ValueError(
                f"unknown shape knob {part!r}{context}; choose from "
                f"{list(SHAPE_KNOB_ORDER)}")
        field = _KNOB_FIELDS[knob]
        if field in values:
            raise ValueError(
                f"duplicate shape knob {knob!r}{context}")
        try:
            value = int(value_text)
        except ValueError:
            raise ValueError(
                f"shape knob {knob!r} needs an integer value, got "
                f"{value_text!r}{context}") from None
        if knob in _BOOL_KNOBS:
            if value != 1:
                raise ValueError(
                    f"shape knob {knob!r} is a flag; write "
                    f"'{knob}=1' or omit it{context}")
            values[field] = True
        else:
            values[field] = value
    return Shape(**values)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Topology:
    """A generated application's structure: stages + edges."""

    family: str
    stages: tuple[StageSpec, ...]


def _pipeline(rng: random.Random) -> Topology:
    depth = rng.randint(2, 4)
    head_replicas = rng.randint(1, 3)
    triggered_tail = depth >= 3 and rng.random() < 0.25
    stages = [StageSpec(name="stage0", replicas=head_replicas)]
    for index in range(1, depth):
        stages.append(StageSpec(
            name=f"stage{index}",
            replicas=1,
            inputs=(index - 1,),
            on_abnormal=triggered_tail and index == depth - 1,
        ))
    return Topology(family="pipeline", stages=tuple(stages))


def _fork_join(rng: random.Random) -> Topology:
    workers = rng.randint(2, 4)
    with_tail = rng.random() < 0.5
    stages = [
        StageSpec(name="worker", replicas=workers),
        StageSpec(name="join", replicas=1, inputs=(0,)),
    ]
    if with_tail:
        stages.append(StageSpec(
            name="tail", replicas=1, inputs=(1,),
            on_abnormal=rng.random() < 0.3))
    return Topology(family="fork-join", stages=tuple(stages))


def _fan_in(rng: random.Random) -> Topology:
    producers = rng.randint(2, 3)
    stages = [StageSpec(name=f"source{index}", replicas=1)
              for index in range(producers)]
    stages.append(StageSpec(
        name="fuse", replicas=1, inputs=tuple(range(producers))))
    return Topology(family="fan-in", stages=tuple(stages))


def _independent(rng: random.Random) -> Topology:
    replicas = rng.randint(2, 4)
    return Topology(
        family="independent",
        stages=(StageSpec(name="replica", replicas=replicas),),
    )


def _random_dag(rng: random.Random) -> Topology:
    layers = rng.randint(2, 4)
    stages: list[StageSpec] = []
    layer_members: list[list[int]] = []
    for layer in range(layers):
        width = rng.randint(1, 2)
        members: list[int] = []
        for slot in range(width):
            if layer == 0:
                inputs: tuple[int, ...] = ()
                # Up to 3 replicas per source: wide draws overflow an
                # 8-core platform and exercise the repair path.
                replicas = rng.randint(1, 3)
            else:
                upstream = [index
                            for earlier in layer_members
                            for index in earlier]
                fan = min(len(upstream), rng.randint(1, 2))
                # Deterministic draw order: sample positions, then sort.
                picks = sorted(rng.sample(range(len(upstream)), fan))
                inputs = tuple(upstream[pick] for pick in picks)
                replicas = 1
            stages.append(StageSpec(
                name=f"n{layer}_{slot}",
                replicas=replicas,
                inputs=inputs,
                on_abnormal=layer == layers - 1 and rng.random() < 0.2,
            ))
            members.append(len(stages) - 1)
        layer_members.append(members)
    return Topology(family="random-dag", stages=tuple(stages))


def _shaped_dag(rng: random.Random, shape: Shape) -> Topology:
    """A ``random-dag`` steered by adversarial :class:`Shape` knobs.

    The backbone is a chain whose length tracks ``shape.depth``
    (minus the layers any suffix blocks contribute), followed by an
    optional diamond (branch stages ``b0``/``b1`` — ``b1`` *shares*
    ``b0``'s sections — fused by ``join``) and an optional wide
    fan-in block (``shape.fan_in`` distinct producers feeding one
    ``fuse`` stage through a single multi-producer channel).  With
    ``shape.triggered`` a 2-3 stage suffix subgraph runs per
    pathological beat.  All draws stay on the caller's rng stream in
    declaration order, so shaped identities are as reproducible as
    plain ones.
    """
    replicas = (shape.replicas if shape.replicas is not None
                else rng.randint(1, 3))
    suffix_layers = (2 if shape.diamond else 0) + (
        2 if shape.fan_in is not None else 0)
    depth = (shape.depth if shape.depth is not None
             else rng.randint(3, 5))
    chain = max(1, depth - suffix_layers)
    stages = [StageSpec(name="n0", replicas=replicas)]
    for index in range(1, chain):
        stages.append(StageSpec(
            name=f"n{index}", replicas=1, inputs=(index - 1,)))
    if shape.diamond:
        tail = len(stages) - 1
        branch = len(stages)
        stages.append(StageSpec(
            name="b0", replicas=1, inputs=(tail,)))
        stages.append(StageSpec(
            name="b1", replicas=1, inputs=(tail,), shares=branch))
        stages.append(StageSpec(
            name="join", replicas=1, inputs=(branch, branch + 1)))
    if shape.fan_in is not None:
        tail = len(stages) - 1
        first = len(stages)
        for slot in range(shape.fan_in):
            stages.append(StageSpec(
                name=f"p{slot}", replicas=1, inputs=(tail,)))
        stages.append(StageSpec(
            name="fuse", replicas=1,
            inputs=tuple(range(first, first + shape.fan_in))))
    if shape.triggered:
        span = min(rng.randint(2, 3), len(stages) - 1)
        for index in range(len(stages) - span, len(stages)):
            stages[index] = replace(stages[index], on_abnormal=True)
    return Topology(family="random-dag", stages=tuple(stages))


#: Family registry, in the fixed order suites cycle through.
FAMILY_ORDER: tuple[str, ...] = (
    "pipeline",
    "fork-join",
    "fan-in",
    "independent",
    "random-dag",
)

FAMILIES = {
    "pipeline": _pipeline,
    "fork-join": _fork_join,
    "fan-in": _fan_in,
    "independent": _independent,
    "random-dag": _random_dag,
}


def require_family(family: str) -> str:
    """Validate a family name (the single source of the error text).

    Raises:
        ValueError: unknown family name.
    """
    if family not in FAMILIES:
        raise ValueError(
            f"unknown topology family {family!r}; choose from "
            f"{list(FAMILY_ORDER)}")
    return family


def require_shape(family: str, shape: Shape | None) -> Shape:
    """Validate a (family, shape) pair; a default shape for ``None``.

    Raises:
        ValueError: non-default knobs on a family other than
            ``random-dag``.
    """
    shape = shape if shape is not None else Shape()
    if shape and family != "random-dag":
        raise ValueError(
            f"shape knobs ({shape_fragment(shape)}) only apply to "
            f"the 'random-dag' family, not {family!r}")
    return shape


def build_topology(family: str, rng: random.Random,
                   shape: Shape | None = None) -> Topology:
    """Draw one topology of the requested family.

    A non-default ``shape`` routes ``random-dag`` through
    :func:`_shaped_dag`; the default shape keeps the historical draw
    path byte-for-byte.

    Raises:
        ValueError: unknown family name, or shape knobs on a family
            other than ``random-dag``.
    """
    require_family(family)
    shape = require_shape(family, shape)
    if shape:
        return _shaped_dag(rng, shape)
    return FAMILIES[family](rng)
