"""Per-layer spans recorded from outside the program.

:func:`install` wraps the public entry point of each layer (looked up by
module and qualified name) with a span.  A span's *self time* is its
duration minus the time its child spans cover, so the self times of all
layers plus the unnamed rest (``other``) sum to the traced job's time.
Spans nest on one stack: the control workload runs its client and server
on one event loop with one request in flight, so a server-side span
always opens and closes inside the client's request span.

A target that no longer exists is skipped and its layer reported as
absent, so deleting a function does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

#: layer -> ``module:qualname`` targets whose spans make up its self time.
LAYERS = {
    "workload.generate": (
        "repro.workload.mutations:generate_mutation_trace",
    ),
    "live.mutations.fingerprint": (
        "repro.live.mutations:MutationTrace.fingerprint",
        "repro.live.mutations:fingerprint_columns",
    ),
    "live.mutations.columns": ("repro.live.mutations:MutationTrace.columns",),
    "federation.route": (
        "repro.federation.service:FederatedBroadcastService.route",
    ),
    "federation.assemble": (
        "repro.federation.service:FederatedBroadcastService._shard_plans",
        "repro.federation.service:FederatedBroadcastService._columnar_plans",
    ),
    "federation.shard": ("repro.federation.service:replay_shard_task",),
    "engine.executor.run": ("repro.engine.executor:run_tasks",),
    "live.service.run": ("repro.live.service:LiveBroadcastService.run",),
    "live.service.offer": ("repro.live.service:LiveBroadcastService.offer",),
    "engine.schedule": ("repro.engine.facade:BroadcastEngine.schedule",),
    "engine.cache.get": ("repro.engine.cache:ProgramCache.get",),
    "core.validate": ("repro.core.validate:validate_program",),
    "live.baseline.replay": ("repro.live.baseline:replay_pull_lwf",),
    "analysis.vectorized.index_build": (
        "repro.analysis.vectorized:AppearanceIndex.from_program",
    ),
    "analysis.vectorized.batch_waits": (
        "repro.analysis.vectorized:batch_waits",
    ),
    "live.slo.observe": (
        "repro.live.slo:SloTracker.observe",
        "repro.live.slo:SloTracker.observe_batch",
    ),
    "control.session.apply_batch": (
        "repro.control.session:ServiceSession.apply_batch",
    ),
    "control.session.query": (
        "repro.control.session:ServiceSession.slo_query",
        "repro.control.session:ServiceSession.error_budget",
    ),
    "control.remediation.step": (
        "repro.control.remediation:RemediationEngine.step",
    ),
    "control.journal.append": ("repro.control.journal:Journal.append",),
    "api.codec.decode": ("repro.api.codec:decode_line",),
    "api.codec.encode": ("repro.api.codec:encode_line",),
    "control.plane.wait": (
        "repro.control.plane:ControlPlaneClient.request",
    ),
    "engine.telemetry.manifest": (
        "repro.engine.facade:BroadcastEngine._emit_manifest",
        "repro.engine.facade:BroadcastEngine.control_manifest",
        "repro.engine.telemetry:RunManifest.to_json",
    ),
}


class Tracer:
    """Nested spans on one stack, summed per layer."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.hits = 0
        self.absent: list[str] = []
        # [layer, start, time covered by child spans]
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, started, covered = self._stack.pop()
        duration = self.clock() - started
        self.self_s[layer] += duration - covered
        self.calls[layer] += 1
        self.durations[layer].append(duration)
        if self._stack:
            self._stack[-1][2] += duration

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "shard_s": list(self.durations.get("federation.shard", ())),
            "cache_hits": self.hits,
            "absent": sorted(set(self.absent)),
        }


def _wrap(tracer: Tracer, layer: str, fn):
    if inspect.iscoroutinefunction(fn):
        async def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.exit()
    elif layer == "engine.cache.get":
        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                entry = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer.hits += entry is not None
            return entry
    else:
        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
    return functools.update_wrapper(traced, fn)


def _patch(tracer: Tracer, layer: str, target: str) -> bool:
    module_name, qualname = target.split(":")
    module = sys.modules.get(module_name)
    if module is None:
        return False
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return False
    raw = vars(owner).get(attr)
    if raw is None:
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(_wrap(tracer, layer, raw.__func__)))
        return True
    wrapped = _wrap(tracer, layer, raw)
    if owner_name:
        setattr(owner, attr, wrapped)
        return True
    # A module-level function is also bound by name in every module that
    # imported it; rebind it there too.
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("repro") and (
            vars(other).get(attr) is raw
        ):
            setattr(other, attr, wrapped)
    return True


def install(tracer: Tracer) -> None:
    """Wrap every layer target that exists; record the missing ones."""
    for targets in LAYERS.values():
        for target in targets:
            try:
                importlib.import_module(target.split(":")[0])
            except ImportError:
                pass
    for layer, targets in LAYERS.items():
        found = [_patch(tracer, layer, target) for target in targets]
        if not any(found):
            tracer.absent.append(layer)
