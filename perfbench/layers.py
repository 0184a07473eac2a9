"""Outside-in layer tracing: wrap the public functions of ``repro`` modules.

The program carries no benchmark spans of its own, so :class:`Tracer`
installs wrappers from outside.  Callers bind most functions by name
(``from ..autodiff import grad`` in ``engine/strategies.py``,
``core/maml.py`` and ``engine/evaluation.py``), so a wrapper on the
defining module alone would never fire: :meth:`Tracer.install` rebinds
the function in *every* loaded ``repro`` module that holds it, and
:meth:`Tracer.uninstall` puts every original back.  Methods are wrapped
on each class that defines them.

Spans are kept in memory (name, start, end, parent, workload, run id)
and turned into per-layer totals by :func:`layer_totals`: calls,
inclusive seconds, and self seconds (duration minus the time covered by
direct child spans).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Root spans opened by the benchmark itself around set-up and the fit.
SETUP, FIT = "setup", "fit"

#: Layer name -> (module, qualified name) of the public function wrapped.
#: A ``Class.method`` target is wrapped on that class and on every
#: subclass that overrides the method.
FUNCTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "data.generate": (
        ("repro.data.synthetic", "generate_synthetic"),
        ("repro.data.mnist_like", "generate_mnist_like"),
        ("repro.data.sent140_like", "generate_sent140_like"),
    ),
    "engine.build_nodes": (("repro.engine.strategies", "LocalStrategy.build_nodes"),),
    "engine.run_block": (
        ("repro.engine.executors", "SerialExecutor.run_block"),
        ("repro.engine.vectorized", "VectorizedExecutor.run_block"),
    ),
    "engine.local_step": (("repro.engine.strategies", "LocalStrategy.local_step"),),
    "engine.local_block_vectorized": (
        ("repro.engine.strategies", "LocalStrategy.local_block_vectorized"),
    ),
    "engine.evaluate": (("repro.engine.strategies", "LocalStrategy.evaluate"),),
    "engine.loss_gradient": (("repro.engine.evaluation", "loss_gradient"),),
    "core.meta_gradient": (("repro.core.maml", "meta_gradient"),),
    "core.inner_adapt": (("repro.core.maml", "inner_adapt"),),
    "core.meta_loss": (("repro.core.maml", "meta_loss"),),
    # One wrapper serves both grad names; it picks by ``create_graph``.
    "autodiff.grad": (("repro.autodiff.tensor", "grad"),),
    "nn.fused_model_loss": (("repro.nn.fused", "fused_model_loss"),),
    "nn.batched_model_loss": (("repro.nn.batched", "batched_model_loss"),),
    "federated.aggregate": (("repro.federated.platform", "Platform.aggregate"),),
    "federated.fleet.materialize": (
        ("repro.federated.fleet", "FleetRegistry.materialize"),
    ),
    "federated.fleet.evict": (("repro.federated.fleet", "FleetRegistry.evict"),),
    "federated.fleet.flush": (("repro.federated.fleet", "BufferedAggregator.flush"),),
}

GRAD_CREATE_GRAPH = "autodiff.grad_create_graph"

#: Every layer name the trace reports, in report order.
LAYERS: Tuple[str, ...] = tuple(FUNCTIONS) + (GRAD_CREATE_GRAPH,)

#: Layers whose span also records how many items one call handled.
_ITEMS: Dict[str, Callable[..., int]] = {
    # local_block_vectorized(self, nodes, steps, rngs): stacked nodes
    "engine.local_block_vectorized": lambda args, kwargs: len(args[1]),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    workload: str
    run_id: int
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_record(self) -> Dict[str, Any]:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "workload": self.workload,
            "run_id": self.run_id, "items": self.items,
        }


def _grad_name(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
    # grad(output, inputs, grad_output=None, create_graph=False, ...)
    create_graph = kwargs.get("create_graph", args[3] if len(args) > 3 else False)
    return GRAD_CREATE_GRAPH if create_graph else "autodiff.grad"


class Tracer:
    """Installs span-recording wrappers; records spans for one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.run_id = 0
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.workload, self.run_id)
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A benchmark-side span (``setup`` or ``fit``) around public calls."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        items = _ITEMS.get(name)
        pick = _grad_name if name == "autodiff.grad" else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open(pick(args, kwargs) if pick else name)
            if items is not None:
                self.spans[index].items = items(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ---------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every site that binds it."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for name, targets in FUNCTIONS.items():
            for module_name, qualname in targets:
                module = sys.modules.get(module_name) or __import__(
                    module_name, fromlist=["_"]
                )
                if "." in qualname:
                    class_name, method = qualname.split(".")
                    for cls in _with_subclasses(getattr(module, class_name)):
                        if method in cls.__dict__:
                            self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(name, original)
                for site in list(sys.modules.values()):
                    if (
                        getattr(site, "__name__", "").startswith("repro")
                        and site.__dict__.get(qualname) is original
                    ):
                        self._patch(site, qualname, wrapper)

    def uninstall(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed_for(self, run_id: int) -> Iterator["Tracer"]:
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _with_subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_time)]


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and ``items``."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = totals.setdefault(
            span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0}
        )
        row["calls"] += 1
        row["self_s"] += own
        row["items"] += span.items
        # Inclusive time counts a layer once where it nests inside itself
        # (the vectorized executor's serial fallback is a run_block too).
        if not _nested_in_same(spans, span):
            row["s"] += span.duration
    return totals


def _nested_in_same(spans: List[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False
