"""Layer spans for the traced benchmark run.

The traced run times the calls into each layer's public functions with
wrappers installed from this file, around the program rather than
inside it.  A span's *self time* is its duration minus the part its
wrapped children cover, so the self times of every layer plus the
root span's self time (``bench.unattributed_s``) add up to the traced
run's wall time exactly.

:class:`Patcher` installs and removes the wrappers.  A module-level
function is replaced in every loaded module that holds it (callers that
did ``from x import f`` included); a method is replaced on the class
that defines it.  :meth:`Patcher.restore` puts every original back, so
nothing of the tracer leaks into a later untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
import weakref
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute every installed wrapper carries (the leak check looks for it).
ORIGINAL_ATTR = "__perfbench_original__"

#: Layer -> the public functions whose calls make up its spans.  A target
#: is ``module:function`` or ``module:Class.method``.  Targets marked
#: with a trailing ``->`` also wrap the callable they return (the
#: compiled per-step pricing closures of the vectorized engine core).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "models.decode": (
        "repro.models.llama:LlamaCostModel.decode_step",
        "repro.models.llama:LlamaCostModel.decode_step_stats",
        "repro.models.llama:LlamaCostModel.decode_stepper->",
    ),
    "models.prefill": ("repro.models.llama:LlamaCostModel.prefill",),
    "hw.gemm": ("repro.hw.device:Device.gemm",),
    "kernels.attention": (
        "repro.kernels.attention:attention_time",
        "repro.kernels.attention:flash_attention_time",
        "repro.kernels.attention:fused_sdpa_time",
    ),
    "kernels.paged": (
        "repro.kernels.paged_attention:vllm_base_paged_attention",
        "repro.kernels.paged_attention:vllm_opt_paged_attention",
        "repro.kernels.paged_attention:a100_paged_attention",
        "repro.kernels.paged_attention:reference_paged_attention",
        "repro.kernels.paged_attention:build_paged_time_fn",
    ),
    "comm.collective": (
        "repro.comm.api:CollectiveLibrary.run",
        "repro.surrogate.backend:SurrogateCollectiveLibrary.run",
    ),
    "tpc.launch": ("repro.tpc.launcher:TpcLauncher.launch",),
    "serving.advance": (
        "repro.serving.engine:LlmServingEngine.advance",
        "repro.serving.engine:LlmServingEngine._advance_fast",
    ),
    "serving.feed": ("repro.serving.engine:LlmServingEngine.feed",),
    "serving.finish": ("repro.serving.engine:LlmServingEngine.finish",),
    "cluster.loop": ("repro.cluster.fleet:run_fleet",),
    "cluster.node": (
        "repro.cluster.node:Node.advance_to",
        "repro.cluster.node:Node.reap",
    ),
    "cluster.gateway": (
        "repro.cluster.gateway:Gateway.pick",
        "repro.cluster.gateway:Gateway.dispatch",
        "repro.cluster.gateway:Gateway.probe",
    ),
    "cluster.admission": (
        "repro.cluster.admission:AdmissionController.offer",
        "repro.cluster.admission:AdmissionController.pop_dispatchable",
        "repro.cluster.admission:AdmissionController.evaluate",
        "repro.cluster.admission:CircuitBreaker.blocked",
        "repro.cluster.admission:CircuitBreaker.on_dispatch",
        "repro.cluster.admission:CircuitBreaker.record_success",
        "repro.cluster.admission:CircuitBreaker.record_failure",
    ),
    "surrogate.fit": ("repro.surrogate.fitting:fit_backend",),
    "surrogate.predict": (
        "repro.surrogate.fitting:SurrogateModel.gemm_predict",
        "repro.surrogate.fitting:SurrogateModel.attention_time",
        "repro.surrogate.fitting:SurrogateModel.paged_time",
        "repro.surrogate.fitting:SurrogateModel.collective_time",
        "repro.surrogate.fitting:SurrogateModel.stream_time",
    ),
}

#: Name of the root span; its self time is the run's unattributed time.
ROOT = "bench.run"


class SpanTracer:
    """Stack of open spans with per-layer self time and call counts.

    A call is counted once per outermost entry into its layer: a span
    whose direct parent is the same layer (a subclass override calling
    ``super()``, a dispatcher calling its variants) adds time, not calls.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its full duration."""
        layer, start, children = self._stack.pop()
        total = self.clock() - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + (total - children)
        if self._stack:
            parent = self._stack[-1]
            parent[2] += total
            nested = parent[0] == layer
        else:
            nested = False
        if not nested:
            self.calls[layer] = self.calls.get(layer, 0) + 1
        return total

    @property
    def depth(self) -> int:
        return len(self._stack)

    def wrap(self, fn: Callable, layer: str, wrap_result: bool = False) -> Callable:
        """``fn`` timed as one span of ``layer``."""
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            raise TypeError(f"cannot time lazy callable {fn!r} as a span")
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if wrap_result:
                result = self.wrap(result, layer)
            return result

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper


def _resolve(target: str) -> Tuple[object, str, object]:
    """``module:attr`` / ``module:Class.attr`` -> (owner, name, original).

    A method must be defined on the named class itself (not inherited),
    so restoring it cannot shadow a base-class definition.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, name = path.split(".")
    for part in classes:
        owner = getattr(owner, part)
    if classes:
        if name not in vars(owner):
            raise AttributeError(f"{target}: {owner.__name__} does not define {name!r}")
        return owner, name, vars(owner)[name]
    return owner, name, getattr(owner, name)


class Patcher:
    """Installs replacements for functions and methods, and undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``target`` by ``make(original)`` wherever it is bound."""
        owner, name, original = _resolve(target)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{target}: static and class methods are not supported")
        replacement = make(original)
        if isinstance(owner, type):
            self._set(owner, name, replacement)
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original back, newest replacement first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @property
    def active(self) -> int:
        return len(self._undo)


def install_layers(
    tracer: SpanTracer, patcher: Patcher, layers: Optional[Dict[str, Tuple[str, ...]]] = None
) -> None:
    """Wrap every target of ``layers`` (default :data:`LAYERS`)."""
    for layer, targets in (LAYERS if layers is None else layers).items():
        for target in targets:
            wrap_result = target.endswith("->")
            target = target[:-2] if wrap_result else target
            patcher.replace(
                target,
                lambda fn, layer=layer, wrap_result=wrap_result: tracer.wrap(
                    fn, layer, wrap_result
                ),
            )


class LiveCount:
    """High-water count of live instances of one class.

    Installs a constructor hook that remembers each instance weakly and
    samples the live count after every call of ``sample_on``.  Instances
    are keyed by ``id`` because dataclasses with ``eq`` are unhashable.
    """

    def __init__(self, patcher: Patcher, cls_target: str, sample_on: str) -> None:
        self.high_water = 0
        live: Dict[int, weakref.ref] = {}

        def hook_init(init):
            @functools.wraps(init)
            def __init__(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                key = id(obj)
                live[key] = weakref.ref(obj, lambda _ref, key=key: live.pop(key, None))

            setattr(__init__, ORIGINAL_ATTR, init)
            return __init__

        def hook_sample(fn):
            @functools.wraps(fn)
            def sampled(*args, **kwargs):
                result = fn(*args, **kwargs)
                if len(live) > self.high_water:
                    self.high_water = len(live)
                return result

            setattr(sampled, ORIGINAL_ATTR, fn)
            return sampled

        patcher.replace(f"{cls_target}.__init__", hook_init)
        patcher.replace(sample_on, hook_sample)


def _is_wrapper(value: object) -> bool:
    return isinstance(value, types.FunctionType) and ORIGINAL_ATTR in value.__dict__


def leaked_wrappers() -> List[str]:
    """Names of module or class attributes that still hold a wrapper."""
    leaks = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if _is_wrapper(value):
                leaks.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                leaks.extend(
                    f"{module.__name__}.{attr}.{name}"
                    for name, member in list(vars(value).items())
                    if _is_wrapper(member)
                )
    return leaks
