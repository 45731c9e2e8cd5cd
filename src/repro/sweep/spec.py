"""Declarative sweep specifications and their expansion into runs.

A :class:`SweepSpec` names a *run family* (``runner``), a set of fixed
parameters (``base``) and an ordered mapping of *axes*, each axis being
a parameter name and the tuple of values it sweeps over.  Expansion is
the cartesian product of the axes overlaid on the base parameters, in
axis order, with exact duplicate points removed (first occurrence
wins) — so specs whose axes collapse onto each other (for example a
``ratio`` axis crossed with apps that ignore it) stay cheap.

Everything in a spec is restricted to JSON scalars, which gives every
point a *canonical form* (sorted-key JSON).  That canonical form is
the substrate for the content-addressed result cache
(:mod:`repro.sweep.cache`) and for the deterministic per-point seed
stream: points that carry no explicit ``seed`` parameter derive one
from their canonical hash, the same derive-from-stable-identity
pattern :mod:`repro.net.fleet` uses for its per-node RNG streams.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from ..store import content_key

#: JSON scalar types allowed as parameter values.
Value = None | bool | int | float | str

#: Version tag mixed into every canonical point (bump to invalidate
#: all cached results when the point semantics change).
POINT_SCHEMA = "repro-sweep-point/1"


class SpecError(ValueError):
    """A sweep specification is malformed."""


def _check_value(name: str, value: Value) -> None:
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise SpecError(
            f"parameter {name!r} must be a JSON scalar, got "
            f"{type(value).__name__}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep campaign.

    Attributes:
        name: campaign name (used for artifact file names).
        runner: run-family key in :data:`repro.sweep.runners.RUNNERS`.
        axes: ordered ``(parameter, values)`` pairs; the cartesian
            product of the values is swept, last axis fastest.
        base: fixed parameters every point starts from; an axis with
            the same parameter name overrides the base value.
        description: one-line human summary.
    """

    name: str
    runner: str
    axes: tuple[tuple[str, tuple[Value, ...]], ...] = ()
    base: tuple[tuple[str, Value], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("spec needs a name")
        seen: set[str] = set()
        for axis, values in self.axes:
            if axis in seen:
                raise SpecError(f"duplicate axis {axis!r}")
            seen.add(axis)
            if not values:
                raise SpecError(f"axis {axis!r} has no values")
            for value in values:
                _check_value(axis, value)
        for key, value in self.base:
            _check_value(key, value)

    @property
    def axis_names(self) -> tuple[str, ...]:
        """The swept parameter names, in declaration order."""
        return tuple(axis for axis, _ in self.axes)

    def n_points(self) -> int:
        """Grid size before deduplication."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def as_dict(self) -> dict:
        """JSON-ready form (inverse of :func:`spec_from_mapping`)."""
        return {
            "name": self.name,
            "runner": self.runner,
            "description": self.description,
            "base": dict(self.base),
            "axes": {axis: list(values) for axis, values in self.axes},
        }


def spec_from_mapping(data: dict) -> SweepSpec:
    """Build a spec from a JSON-style mapping.

    Expected shape::

        {"name": "demo", "runner": "app",
         "base": {"duration_s": 5.0},
         "axes": {"app": ["3L-MF", "3L-MMD"],
                  "mode": ["single-core", "multi-core"]}}

    Raises:
        SpecError: missing keys or non-scalar values.
    """
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    try:
        name = data["name"]
        runner = data["runner"]
    except KeyError as exc:
        raise SpecError(f"spec is missing required key {exc}") from None
    axes = data.get("axes", {})
    base = data.get("base", {})
    if not isinstance(axes, dict) or not isinstance(base, dict):
        raise SpecError("'axes' and 'base' must be JSON objects")
    for axis, values in axes.items():
        # tuple("abc") would silently sweep one point per character
        if not isinstance(values, (list, tuple)):
            raise SpecError(
                f"axis {axis!r} must be a list of values, got "
                f"{type(values).__name__}"
            )
    return SweepSpec(
        name=name,
        runner=runner,
        description=data.get("description", ""),
        axes=tuple((axis, tuple(values)) for axis, values in axes.items()),
        base=tuple(base.items()),
    )


def expand(spec: SweepSpec) -> list[dict[str, Value]]:
    """Expand a spec into its deduplicated list of run points.

    The cartesian product is walked in axis order (last axis varies
    fastest); each point is the base mapping overlaid with the axis
    values.  Points that canonicalise identically are dropped after
    their first occurrence.
    """
    base = dict(spec.base)
    if not spec.axes:
        return [base]
    names = [axis for axis, _ in spec.axes]
    grids = [values for _, values in spec.axes]
    points: list[dict[str, Value]] = []
    seen: set[str] = set()
    for combo in itertools.product(*grids):
        point = dict(base)
        point.update(zip(names, combo))
        key = canonical_point(spec.runner, point)
        if key in seen:
            continue
        seen.add(key)
        points.append(point)
    return points


def _point_identity(runner: str, point: dict[str, Value]) -> dict:
    return {"schema": POINT_SCHEMA, "runner": runner, "point": point}


def canonical_point(runner: str, point: dict[str, Value]) -> str:
    """The canonical JSON identity of one run point."""
    return json.dumps(
        _point_identity(runner, point), sort_keys=True, separators=(",", ":")
    )


def point_key(runner: str, point: dict[str, Value]) -> str:
    """Stable content hash of a run point (cache address)."""
    return content_key(_point_identity(runner, point))


def stable_seed(runner: str, point: dict[str, Value]) -> int:
    """Deterministic per-point seed derived from the point identity.

    Mirrors the fleet runner's per-node stream derivation: the seed is
    a pure function of stable identity, so serial and sharded parallel
    execution (and re-runs on other machines) draw identical streams.
    """
    digest = hashlib.sha256(
        ("seed:" + canonical_point(runner, point)).encode("utf-8")
    )
    return int.from_bytes(digest.digest()[:4], "big")
