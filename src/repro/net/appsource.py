"""Pluggable per-node application sources for fleet scenarios.

The paper evaluates its node on three fixed ECG benchmarks; fleet
scenarios originally hard-coded that choice as a weighted
``(benchmark name, weight)`` mix.  This module turns the application
binding into a first-class seam: a :class:`Scenario
<repro.net.scenarios.Scenario>` carries an **AppSource**, and
:func:`repro.net.node.build_node` asks it to *bind* one application
per node from the node's own seeded stream.  Three sources exist:

* :class:`BenchmarkSource` — the original behaviour, byte-compatible:
  one weighted draw from the Table I benchmark registry
  (:data:`APPS`), mapped by the paper's default placement.
* :class:`GeneratedSuiteSource` — each node draws a synthetic
  application from a :func:`repro.gen.generator.suite_tokens` suite
  and places it with a named mapping policy from
  :data:`repro.gen.policies.POLICIES` (including the stochastic
  ``search-greedy`` / ``search-anneal`` family).  Apps the policy
  cannot place after replica repair are skipped deterministically
  (the node advances through the suite until one maps).
* :class:`MixedSource` — a weighted union of other sources, for
  deployments where certified monitors run beside pilot devices.

A binding records everything downstream layers need: the (possibly
repaired) :class:`~repro.apps.phases.AppSpec`, its regeneration
token, topology family, mapping policy, the simulator-ready
:class:`~repro.apps.mapping.MappingPlan` and the per-app clock floor
from :func:`repro.apps.mapping.plan_required_mhz` — so heterogeneous
fleets pay the *correct per-node* power instead of a fleet-wide
average.  Sources are frozen dataclasses: hashable, picklable (they
ride inside :class:`~repro.net.fleet.FleetConfig` to worker
processes) and serialisable through :meth:`to_mapping` /
:func:`source_from_mapping`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, ClassVar

from .. import obs
from ..apps import rp_class, three_lead_mf, three_lead_mmd
from ..apps.mapping import MappingError, MappingPlan, plan_required_mhz
from ..apps.phases import AppSpec
from ..gen.explorer import repair_app
from ..gen.generator import app_from_token, parse_app_token, suite_tokens
from ..gen.policies import get_policy
from ..gen.topology import require_family
from ..sysc.engine import Mode
from .compute import app_plan_key

#: Application registry: benchmark names -> AppSpec builders (every
#: builder takes the pathological-beat ratio; the fixed filtering
#: chains ignore it).
APPS: dict[str, Callable[[float], AppSpec]] = {
    "3L-MF": lambda ratio: three_lead_mf(),
    "3L-MMD": lambda ratio: three_lead_mmd(),
    "RP-CLASS": rp_class,
}

#: Source kinds (the value of ``FleetSummary.source``).
BENCHMARK_KIND = "benchmark"
GENERATED_KIND = "generated-suite"
MIXED_KIND = "mixed"


@dataclass(frozen=True)
class AppBinding:
    """One node's bound application, ready to simulate.

    Attributes:
        name: application name (benchmark or generated).
        app: the (possibly replica-repaired) application spec.
        app_key: content hash of ``(app, plan, num_cores)`` from
            :func:`repro.net.compute.app_plan_key`, computed once per
            distinct binding so the compute resolver addresses shared
            work without re-fingerprinting per node.
        token: regeneration token of a generated app ("" for
            benchmarks, which are code, not data).
        family: topology family of a generated app ("" for
            benchmarks).
        policy: mapping-policy name that produced ``plan`` ("" means
            the paper's default placement, derived inside the
            simulator).
        plan: precomputed mapping plan (None = paper default).
        floor_mhz: the placement's own clock requirement from
            :func:`repro.apps.mapping.plan_required_mhz` (0 when the
            paper default is derived downstream).
        repairs: replicas trimmed to fit the platform.
        skipped: suite entries the policy rejected before this app
            bound (generated sources only).
        num_cores: provisioned platform width the node simulates
            (the paper's 8 for benchmarks; generated sources carry
            their own so narrow/wide platforms pay correct power).
    """

    name: str
    app: AppSpec
    app_key: str
    token: str = ""
    family: str = ""
    policy: str = ""
    plan: MappingPlan | None = None
    floor_mhz: float = 0.0
    repairs: int = 0
    skipped: int = 0
    num_cores: int = 8

    @property
    def mode(self) -> Mode:
        """Simulator mode the binding's placement calls for."""
        if self.plan is None or self.plan.multicore:
            return Mode.MULTI_CORE
        return Mode.SINGLE_CORE


@lru_cache(maxsize=64)
def _benchmark_binding(name: str, abnormal_ratio: float) -> AppBinding:
    """Memoised benchmark binding.

    Bindings and their specs are frozen/read-only downstream, so
    every node drawing the same ``(benchmark, ratio)`` can share one
    instance instead of rebuilding the spec and its content hash.
    """
    app = APPS[name](abnormal_ratio)
    return AppBinding(
        name=name, app=app, app_key=app_plan_key(app, None, 8)
    )


@dataclass(frozen=True)
class BenchmarkSource:
    """The paper's fixed benchmarks, drawn from a weighted mix.

    Byte-compatible with the original ``app_mix`` behaviour: binding
    consumes exactly one weighted draw from the node's app stream, so
    fleets built from a ``BenchmarkSource`` reproduce the historical
    per-node draws bit-for-bit.
    """

    kind: ClassVar[str] = BENCHMARK_KIND

    mix: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError("benchmark source needs a non-empty mix")
        for name, weight in self.mix:
            if name not in APPS:
                raise ValueError(
                    f"unknown benchmark {name!r}; choose from "
                    f"{sorted(APPS)}"
                )
            if weight <= 0:
                raise ValueError(f"benchmark {name!r} needs weight > 0")

    def bind(
        self, rng: random.Random, abnormal_ratio: float = 0.0
    ) -> AppBinding:
        """Draw one benchmark from the mix (one ``choices`` call)."""
        names, cumulative = self._table
        name = rng.choices(names, cum_weights=cumulative)[0]
        return _benchmark_binding(name, abnormal_ratio)

    @cached_property
    def _table(self) -> tuple[list[str], list[float]]:
        """Names and cumulative weights, as ``choices`` takes them."""
        names = [name for name, _ in self.mix]
        return names, list(accumulate(weight for _, weight in self.mix))

    def universe(
        self, abnormal_ratio: float = 0.0
    ) -> tuple[AppBinding, ...]:
        """Every binding this source can produce (mix order)."""
        names: list[str] = []
        for name, _ in self.mix:
            if name not in names:
                names.append(name)
        return tuple(
            _benchmark_binding(name, abnormal_ratio) for name in names
        )

    def describe(self) -> str:
        """One-line human summary."""
        return "benchmarks " + "+".join(name for name, _ in self.mix)

    def to_mapping(self) -> dict:
        """JSON-ready form (inverse of :func:`source_from_mapping`)."""
        return {
            "kind": self.kind,
            "mix": [[name, weight] for name, weight in self.mix],
        }


@lru_cache(maxsize=512)
def _resolve_generated(
    token: str, policy_name: str, num_cores: int
) -> tuple[AppSpec, MappingPlan, int]:
    """Regenerate, repair and place one generated app (memoised).

    Pure function of its arguments (the search policies seed from the
    app's content fingerprint), so the per-process cache never
    changes results — it only keeps a fleet from re-running the same
    placement for every node that drew the same token.

    Metrics collection is suspended for the body: the memoised
    resolution (which may run a whole placement *search*) executes a
    process-dependent number of times, so only the deterministic
    per-draw counters in :meth:`GeneratedSuiteSource.bind` are
    recorded.

    Raises:
        repro.apps.mapping.MappingError: the policy cannot place the
            app even after replica repair.
        ValueError: malformed token or unknown policy.
    """
    with obs.suspended():
        policy = get_policy(policy_name)
        app = app_from_token(token)
        repairs = 0
        if policy.multicore:
            app, repairs = repair_app(app, num_cores)
        plan = policy.map(app, num_cores)
        return app, plan, repairs


@lru_cache(maxsize=512)
def _generated_binding(
    token: str, policy_name: str, num_cores: int
) -> AppBinding:
    """Memoised skip-free binding for one generated draw.

    Pure function of its arguments (like :func:`_resolve_generated`,
    which it wraps); memoising it also stops fleets from re-running
    ``plan_required_mhz`` and the content hash once per node.

    Raises:
        repro.apps.mapping.MappingError: the policy cannot place the
            app even after replica repair.
    """
    app, plan, repairs = _resolve_generated(token, policy_name, num_cores)
    family, _, _, _ = parse_app_token(token)
    floor = plan_required_mhz(plan) if plan.multicore else 0.0
    return AppBinding(
        name=app.name,
        app=app,
        token=token,
        family=family,
        policy=policy_name,
        plan=plan,
        floor_mhz=floor,
        repairs=repairs,
        num_cores=num_cores,
        app_key=app_plan_key(app, plan, num_cores),
    )


@dataclass(frozen=True)
class GeneratedSuiteSource:
    """Nodes draw generated applications from one seeded suite.

    Attributes:
        seed: suite seed of :func:`repro.gen.generator.suite_tokens`.
        count: suite size (>= 1).
        families: family cycle; () means every family in
            :data:`repro.gen.topology.FAMILY_ORDER`.
        policy: mapping-policy name applied to every draw.
        num_cores: provisioned platform width of each node.
    """

    kind: ClassVar[str] = GENERATED_KIND

    seed: int
    count: int
    families: tuple[str, ...] = ()
    policy: str = "balanced"
    num_cores: int = 8

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("generated suite needs at least one app")
        get_policy(self.policy)
        for family in self.families:
            require_family(family)

    def tokens(self) -> list[str]:
        """The suite's regeneration tokens."""
        return suite_tokens(self.seed, self.count, self.families or None)

    def bind(
        self, rng: random.Random, abnormal_ratio: float = 0.0
    ) -> AppBinding:
        """Draw one placeable app (one ``randrange`` call).

        The node draws a suite index, then advances deterministically
        through the suite past any app the policy rejects, so every
        node runs *something* and the skip count is reported.

        Raises:
            repro.apps.mapping.MappingError: no app in the suite is
                placeable under the policy.
        """
        tokens = self.tokens()
        start = rng.randrange(self.count)
        errors: list[str] = []
        for offset in range(self.count):
            token = tokens[(start + offset) % self.count]
            try:
                binding = _generated_binding(
                    token, self.policy, self.num_cores
                )
            except MappingError as exc:
                errors.append(str(exc))
                continue
            obs.add("net.apps.resolved")
            if offset:
                obs.add("net.apps.skipped", offset)
                binding = replace(binding, skipped=offset)
            return binding
        raise MappingError(
            f"policy {self.policy!r} places no app of suite "
            f"(seed {self.seed}, count {self.count}): "
            + "; ".join(errors)
        )

    def universe(
        self, abnormal_ratio: float = 0.0
    ) -> tuple[AppBinding, ...]:
        """Every placeable binding of the suite, in suite order.

        Enumerable without any node draws — the compute resolver
        pre-resolves this closed set once per run instead of
        discovering bindings node by node.
        """
        bindings: list[AppBinding] = []
        for token in self.tokens():
            try:
                bindings.append(
                    _generated_binding(
                        token, self.policy, self.num_cores
                    )
                )
            except MappingError:
                continue
        return tuple(bindings)

    def describe(self) -> str:
        """One-line human summary."""
        families = "+".join(self.families) if self.families else "all"
        return (
            f"generated suite seed {self.seed} x{self.count} "
            f"({families}) via {self.policy}"
        )

    def to_mapping(self) -> dict:
        """JSON-ready form (inverse of :func:`source_from_mapping`)."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "count": self.count,
            "families": list(self.families),
            "policy": self.policy,
            "num_cores": self.num_cores,
        }


@dataclass(frozen=True)
class MixedSource:
    """A weighted union of other sources.

    Binding consumes one weighted part draw, then delegates to the
    chosen part — so a mixed fleet's benchmark nodes and generated
    nodes each keep their own deterministic draw discipline.
    """

    kind: ClassVar[str] = MIXED_KIND

    parts: tuple[tuple["AppSource", float], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("mixed source needs at least one part")
        for source, weight in self.parts:
            if not hasattr(source, "bind"):
                raise ValueError(
                    f"mixed-source part {source!r} is not an AppSource"
                )
            if weight <= 0:
                raise ValueError("mixed-source parts need weight > 0")

    def bind(
        self, rng: random.Random, abnormal_ratio: float = 0.0
    ) -> AppBinding:
        """Draw a part, then delegate the app draw to it."""
        sources = [source for source, _ in self.parts]
        weights = [weight for _, weight in self.parts]
        chosen = rng.choices(sources, weights=weights)[0]
        return chosen.bind(rng, abnormal_ratio)

    def universe(
        self, abnormal_ratio: float = 0.0
    ) -> tuple[AppBinding, ...]:
        """Union of the parts' universes (duplicates are fine — the
        compute resolver dedupes by content key)."""
        bindings: list[AppBinding] = []
        for source, _ in self.parts:
            bindings.extend(source.universe(abnormal_ratio))
        return tuple(bindings)

    def describe(self) -> str:
        """One-line human summary."""
        return " | ".join(source.describe() for source, _ in self.parts)

    def to_mapping(self) -> dict:
        """JSON-ready form (inverse of :func:`source_from_mapping`)."""
        return {
            "kind": self.kind,
            "parts": [
                [source.to_mapping(), weight]
                for source, weight in self.parts
            ],
        }


#: Union type of every source implementation.
AppSource = BenchmarkSource | GeneratedSuiteSource | MixedSource


def source_from_mapping(data: dict) -> AppSource:
    """Rebuild an app source from its :meth:`to_mapping` form.

    Raises:
        ValueError: unknown kind or malformed mapping.
    """
    kind = data.get("kind")
    if kind == BENCHMARK_KIND:
        return BenchmarkSource(
            mix=tuple(
                (str(name), float(weight)) for name, weight in data["mix"]
            )
        )
    if kind == GENERATED_KIND:
        return GeneratedSuiteSource(
            seed=int(data["seed"]),
            count=int(data["count"]),
            families=tuple(data.get("families", ())),
            policy=str(data.get("policy", "balanced")),
            num_cores=int(data.get("num_cores", 8)),
        )
    if kind == MIXED_KIND:
        return MixedSource(
            parts=tuple(
                (source_from_mapping(part), float(weight))
                for part, weight in data["parts"]
            )
        )
    raise ValueError(
        f"unknown app-source kind {kind!r}; choose from "
        f"{[BENCHMARK_KIND, GENERATED_KIND, MIXED_KIND]}"
    )


__all__ = [
    "APPS",
    "AppBinding",
    "AppSource",
    "BENCHMARK_KIND",
    "BenchmarkSource",
    "GENERATED_KIND",
    "GeneratedSuiteSource",
    "MIXED_KIND",
    "MixedSource",
    "source_from_mapping",
]
