"""Pluggable accelerator backends: the ``Backend`` protocol + registry.

The paper's programmability claim (Figure 2(a)) is that PyTorch's
device abstraction lets one serving stack run unchanged on either
platform.  This module is the simulator's equivalent seam: everything a
component model consumes from a platform -- GEMM/matmul cost, vector
and attention kernel cost, the memory model and its access granularity,
collective fabric parameters, the power model, and launch overheads --
is pinned down by the :class:`Backend` protocol, and concrete
implementations are looked up through a string-keyed registry instead
of hard-coded two-way branches.

Registration is entry-point style: a backend is declared as a
:class:`BackendInfo` whose factory is a lazy ``"module:attr"`` string,
so registering a platform costs nothing until the first
:func:`get_backend` call instantiates it.  Third-party code can extend
the open set at import time::

    from repro.hw.backend import BackendInfo, register_backend

    register_backend(BackendInfo(
        key="mi300", display_name="MI300X", vendor="AMD",
        family="cuda", aliases=("rocm",),
        factory="mypkg.mi300:Mi300Device",
    ))

or out-of-process via ``REPRO_BACKEND_PLUGINS=mypkg.mi300:register``
(a comma-separated list of ``module:callable`` hooks invoked on first
registry access).

Canonical registry keys for the built-in platforms are exported as
constants (:data:`GAUDI2`, :data:`A100`, :data:`H100`, :data:`GAUDI3`)
so call sites stop scattering raw ``"gaudi2"``/``"a100"`` literals.
"""

from __future__ import annotations

import difflib
import importlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Tuple, Union, runtime_checkable

from repro.audit.errors import ConfigError

__all__ = [
    "A100",
    "Backend",
    "BackendInfo",
    "BackendRegistry",
    "GAUDI2",
    "GAUDI3",
    "H100",
    "DEFAULT_COMPARISON",
    "comparison_backends",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
    "backend_info",
]

#: Canonical registry keys of the built-in backends.
GAUDI2 = "gaudi2"
A100 = "a100"
H100 = "h100"
GAUDI3 = "gaudi3"

#: The paper's original two-way comparison (ordering matters: figures
#: iterate in this order, and golden outputs depend on it).
DEFAULT_COMPARISON: Tuple[str, ...] = (GAUDI2, A100)

#: Environment variable naming the active comparison set, e.g.
#: ``REPRO_BACKENDS=gaudi2,a100,h100`` (set by ``repro --backend``;
#: inherited by process-pool workers, so parallel figure regeneration
#: sees the same set).
BACKENDS_ENV = "REPRO_BACKENDS"

#: Environment variable of extra registration hooks, comma-separated
#: ``module:callable`` entries invoked once on first registry access.
PLUGINS_ENV = "REPRO_BACKEND_PLUGINS"


@runtime_checkable
class Backend(Protocol):
    """Everything a component model may consume from one platform.

    The concrete implementations are the device facades of
    :mod:`repro.hw.device` / :mod:`repro.hw.hopper`; this protocol
    pins the surface so new backends know exactly what to provide and
    the conformance suite (``tests/test_backend_conformance.py``) can
    hold every registered backend to the same invariants.
    """

    # -- identity ------------------------------------------------------
    @property
    def name(self) -> str: ...            # display name, e.g. "Gaudi-2"
    @property
    def spec(self): ...                   # DeviceSpec (Table 1 column)

    # -- kernel-dialect capabilities ----------------------------------
    #: Which kernel implementations apply: "gaudi" (graph-compiler
    #: fused MME + TPC-C) or "cuda" (SIMT kernels + tensor cores).
    family: str
    #: Default paged decode-attention implementation name
    #: (a :class:`repro.models.llama.DecodeAttention` value).
    decode_attention: str
    #: Which smi-style readout the tools layer renders.
    smi_style: str
    #: Fused dense-attention efficiency (fraction of matrix peak).
    attention_efficiency: float

    # -- cost models ---------------------------------------------------
    def gemm(self, m: int, k: int, n: int, dtype=..., batch: int = 1): ...
    def matrix_utilization(self, m: int, k: int, n: int, dtype=...) -> float: ...
    @property
    def hbm(self): ...                    # HbmModel (granularity, random bw)
    @property
    def vector(self): ...                 # VectorUnitModel
    @property
    def power(self): ...                  # PowerModel

    # -- fabric / overheads -------------------------------------------
    def collective_library(self, num_devices: int = 8): ...
    @property
    def kernel_launch_overhead(self) -> float: ...
    @property
    def peak_matrix_flops(self) -> float: ...
    @property
    def peak_vector_flops(self) -> float: ...
    @property
    def peak_bandwidth(self) -> float: ...


@dataclass(frozen=True)
class BackendInfo:
    """One registered backend (declaration only; construction is lazy).

    ``factory`` and ``spec`` accept either the object itself or an
    entry-point style ``"module:attr"`` string resolved on first use,
    so declaring a backend never imports its implementation module.
    """

    key: str
    display_name: str
    vendor: str
    #: Kernel-dialect family ("gaudi" | "cuda").
    family: str
    factory: Union[str, Callable[[], "Backend"]]
    aliases: Tuple[str, ...] = ()
    #: Lazy pointer at the backend's DeviceSpec (for spec lookups that
    #: must not instantiate the full device model).
    spec: Union[str, object, None] = None
    #: One-line description shown by ``repro backends``.
    summary: str = ""

    def resolve_factory(self) -> Callable[[], "Backend"]:
        if callable(self.factory):
            return self.factory
        return _load_entry_point(self.factory)

    def resolve_spec(self):
        if self.spec is None:
            return None
        if isinstance(self.spec, str):
            return _load_entry_point(self.spec)
        return self.spec


def _load_entry_point(ref: str):
    """Resolve an entry-point style ``"module:attr"`` reference."""
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ConfigError(f"bad backend entry point {ref!r} (expected 'module:attr')")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ConfigError(
            f"backend entry point {ref!r} names no attribute {attr!r}"
        ) from None


class BackendRegistry:
    """String-keyed, alias-aware registry of accelerator backends."""

    def __init__(self) -> None:
        self._infos: Dict[str, BackendInfo] = {}
        self._aliases: Dict[str, str] = {}
        self._instances: Dict[str, Backend] = {}
        self._plugins_loaded = False

    # -- registration --------------------------------------------------
    def register(self, info: BackendInfo, replace: bool = False) -> BackendInfo:
        key = info.key.lower()
        if not replace and key in self._infos:
            raise ConfigError(f"backend {key!r} is already registered")
        self._infos[key] = info
        self._aliases[key] = key
        for alias in (*info.aliases, info.display_name):
            self._aliases[alias.lower()] = key
        self._instances.pop(key, None)
        return info

    def _load_plugins(self) -> None:
        """Invoke the ``REPRO_BACKEND_PLUGINS`` hooks exactly once."""
        if self._plugins_loaded:
            return
        self._plugins_loaded = True
        for ref in filter(None, os.environ.get(PLUGINS_ENV, "").split(",")):
            _load_entry_point(ref.strip())()

    # -- lookup --------------------------------------------------------
    def resolve(self, name: str) -> str:
        """Canonical registry key for ``name`` (key, alias, or display
        name; case-insensitive).  Unknown names raise a typed
        :class:`~repro.audit.errors.ConfigError` listing the registered
        backends, with a did-you-mean suggestion when one is close."""
        self._load_plugins()
        if not isinstance(name, str):
            raise ConfigError(f"backend name must be a string, got {type(name).__name__}")
        key = self._aliases.get(name.lower())
        if key is not None:
            return key
        known = sorted(self._infos)
        close = difflib.get_close_matches(name.lower(), list(self._aliases), n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ConfigError(
            f"unknown backend {name!r}{hint}; registered backends: {', '.join(known)}"
        )

    def info(self, name: str) -> BackendInfo:
        return self._infos[self.resolve(name)]

    def get(self, name: str, fresh: bool = False) -> Backend:
        """The backend instance for ``name``.

        Backends are stateless cost models, so instances are cached per
        canonical key unless ``fresh`` asks for a private one.
        """
        key = self.resolve(name)
        if fresh:
            return self._infos[key].resolve_factory()()
        instance = self._instances.get(key)
        if instance is None:
            instance = self._infos[key].resolve_factory()()
            self._instances[key] = instance
        return instance

    def spec(self, name: str):
        """The backend's DeviceSpec without instantiating its models."""
        key = self.resolve(name)
        spec = self._infos[key].resolve_spec()
        if spec is None:
            spec = self.get(key).spec
        return spec

    def keys(self) -> List[str]:
        """Sorted canonical keys of every registered backend."""
        self._load_plugins()
        return sorted(self._infos)

    def infos(self) -> List[BackendInfo]:
        return [self._infos[key] for key in self.keys()]


#: The process-wide registry every surface resolves through.
REGISTRY = BackendRegistry()


def register_backend(info: BackendInfo, replace: bool = False) -> BackendInfo:
    """Register one backend declaration on the global registry."""
    return REGISTRY.register(info, replace=replace)


def get_backend(name: str, fresh: bool = False) -> Backend:
    """Instantiate (or fetch the cached) backend for ``name``."""
    return REGISTRY.get(name, fresh=fresh)


def resolve_backend(name: str) -> str:
    """Validate ``name`` and return its canonical registry key."""
    return REGISTRY.resolve(name)


def backend_info(name: str) -> BackendInfo:
    """The :class:`BackendInfo` declaration behind ``name``."""
    return REGISTRY.info(name)


def list_backends() -> List[str]:
    """Sorted canonical keys of every registered backend."""
    return REGISTRY.keys()


def comparison_backends(default: Optional[Tuple[str, ...]] = None) -> Tuple[str, ...]:
    """The active comparison set for backend-parametric figures.

    Resolution order: the ``REPRO_BACKENDS`` environment variable
    (comma-separated, set by the CLI's ``--backend`` flags and
    inherited by figure process-pool workers), else ``default``, else
    the paper's original :data:`DEFAULT_COMPARISON` pair.  Every name
    is validated through the registry; order and duplicates-removal are
    stable so figure output is deterministic.
    """
    raw = os.environ.get(BACKENDS_ENV, "")
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        return tuple(default) if default else DEFAULT_COMPARISON
    seen: Dict[str, None] = {}
    for name in names:
        seen.setdefault(resolve_backend(name), None)
    return tuple(seen)


# -- built-in backends -------------------------------------------------
# Declared lazily (entry-point style) so importing the registry never
# pulls in a device model the process does not use.
register_backend(BackendInfo(
    key=GAUDI2,
    display_name="Gaudi-2",
    vendor="Intel",
    family="gaudi",
    aliases=("gaudi-2", "hpu"),
    factory="repro.hw.device:Gaudi2Device",
    spec="repro.hw.spec:GAUDI2_SPEC",
    summary="Intel Gaudi-2 NPU: reconfigurable MME + 24 TPCs (Table 1)",
))
register_backend(BackendInfo(
    key=A100,
    display_name="A100",
    vendor="NVIDIA",
    family="cuda",
    aliases=("cuda", "gpu"),
    factory="repro.hw.device:A100Device",
    spec="repro.hw.spec:A100_SPEC",
    summary="NVIDIA A100 GPU: Tensor Cores + 108 SMs (Table 1)",
))
register_backend(BackendInfo(
    key=H100,
    display_name="H100",
    vendor="NVIDIA",
    family="cuda",
    aliases=("hopper", "h100-sxm"),
    factory="repro.hw.hopper:H100Device",
    spec="repro.hw.hopper:H100_SPEC",
    summary="NVIDIA H100 GPU: tile-based tensor-core GEMM (CUDA-Tile model)",
))
register_backend(BackendInfo(
    key=GAUDI3,
    display_name="Gaudi-3",
    vendor="Intel",
    family="gaudi",
    aliases=("gaudi-3",),
    factory="repro.hw.gaudi3:Gaudi3Device",
    spec="repro.hw.gaudi3:GAUDI3_SPEC",
    summary="Intel Gaudi-3 projection (footnote 1 scaling of Gaudi-2)",
))
