"""Per-layer host-time accounting by wrapping each layer's entry points.

Nothing under ``src/`` changes: :meth:`LayerTracer.install` replaces entry
points on the classes (and the module-level names another module bound at
import) with timing wrappers, and :meth:`LayerTracer.uninstall` puts the
originals back.  Nodes, the network and the generators resolve bound
handlers when they are built, so :meth:`install` must run before
``build_experiment``.

Self time is kept on a call stack: a layer's self time is the time between
its wrapper starting and ending the wrapped call, minus the whole time of the
wrapped calls it made.  Each wrapper reads the clock on entry and exit as
well, and books what lies outside the wrapped call (the stack, counters and
span sampling) to :data:`TRACE`, not to the caller.  What the clock readings
cannot separate (calling the wrapper and returning from it, and the steps
between the readings and the wrapped call) are per-call costs
:func:`calibrate` measures before the build; they too are booked to
:data:`TRACE` and taken out of the caller's and the callee's self time.  So
the layer self times add up to about the untraced run's wall time, and
``trace.corrected_ratio`` in ``run.py`` shows how closely.

Spans are held in memory, bounded: every call is aggregated per layer, and
full ``(id, layer, name, start, end, parent)`` rows are kept only for every
:data:`SPAN_STRIDE`-th call, up to :data:`SPAN_CAP` rows, written once by
:meth:`write_spans`.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: Every layer the benchmark reports, named after the ``repro`` package (or
#: module, for the four single-module layers) that implements it.
LAYERS = (
    "sim",
    "sim.network",
    "sim.pipe",
    "core",
    "core.mempool",
    "core.linking",
    "vid",
    "ba",
    "erasure",
    "crypto",
    "workload",
    "metrics",
    "experiments",
)

#: The bucket the wrappers' own cost is booked to.
TRACE = "trace"

#: Full span rows are kept for every ``SPAN_STRIDE``-th wrapped call, up to
#: ``SPAN_CAP`` rows; everything else is only aggregated per layer.
SPAN_STRIDE = 97
SPAN_CAP = 20_000

#: Generator methods that are the workload layer's entry points: ``start``
#: plus the arrival/refill callbacks the generators schedule.
_WORKLOAD_ENTRY_POINTS = ("start", "_arrive", "_refill", "_close_window")


def _len_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: len(args[index])


def _sum_len_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, result: sum(len(item) for item in args[index])


def _len_result(args: tuple, result: Any) -> int:
    return len(result)


def _noop(a, b, c):
    return None


def calibrate(repeats: int = 7, calls: int = 20_000) -> tuple[float, float]:
    """Per-call wrapper cost that the wrapper's clock readings do not book.

    Returns ``(outer_s, inner_s)``.  ``outer_s`` is spent calling the
    wrapper and returning from it, outside its first and last clock
    readings, so it lands in the caller's frame.  ``inner_s`` lies between
    the readings around the wrapped call but is not the call's own work, so
    it lands in the callee's self time.  Each is the median over ``repeats``
    timed loops of ``calls`` calls to a three-argument no-op, wrapped and
    unwrapped, never below zero.
    """
    clock = time.perf_counter
    outer, inner = [], []
    for _ in range(repeats):
        probe = LayerTracer()
        wrapped = probe.wrap("probe", _noop)
        begin = clock()
        for _ in range(calls):
            pass
        empty = clock() - begin
        begin = clock()
        for _ in range(calls):
            _noop(None, 1, 2)
        plain = clock() - begin
        begin = clock()
        for _ in range(calls):
            wrapped(None, 1, 2)
        traced = clock() - begin
        unseen = (traced - plain - probe.self_s[TRACE]) / calls
        inside = (probe.self_s["probe"] - (plain - empty)) / calls
        inner.append(inside)
        outer.append(unseen - inside)
    return max(0.0, statistics.median(outer)), max(0.0, statistics.median(inner))


class LayerTracer:
    """Wraps layer entry points and aggregates calls, self time and bytes.

    Args:
        outer_s, inner_s: the per-call wrapper costs the wrapper's clock
            readings do not book; :func:`calibrate` measures them.
    """

    def __init__(self, outer_s: float = 0.0, inner_s: float = 0.0) -> None:
        self.calls: Counter[str] = Counter()
        #: Self time per layer, plus the wrappers' own cost under TRACE.
        self.self_s: Counter[str] = Counter()
        #: Bytes through the wrapped erasure and crypto calls, counted at
        #: the outermost call of the layer so nested calls count once.
        self.bytes: Counter[str] = Counter()
        #: Event counts read by the benchmark's layer ratios.
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.outer_s = outer_s
        self.inner_s = inner_s
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable,
        nbytes: Callable[[tuple, Any], int] | None = None,
    ) -> Callable:
        """``fn`` wrapped so each call is charged to ``layer``.

        ``nbytes(args, result)``, if given, adds to the layer's bytes.
        """
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        next_id = self._ids.__next__
        clock = time.perf_counter
        origin = self._origin
        outer = self.outer_s
        inner = self.inner_s
        name = getattr(fn, "__qualname__", repr(fn))
        moved = self.bytes
        unset = object()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            span_id = next_id()
            parent = stack[-1] if stack else None
            frame = [0.0, span_id, layer]
            stack.append(frame)
            result = unset
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                self_s[layer] += end - start - frame[0] - inner
                calls[layer] += 1
                if (
                    nbytes is not None
                    and result is not unset
                    and (parent is None or parent[2] != layer)
                ):
                    moved[layer] += nbytes(args, result)
                if span_id % SPAN_STRIDE == 0 and len(spans) < SPAN_CAP:
                    spans.append(
                        (
                            span_id,
                            layer,
                            name,
                            start - origin,
                            end - origin,
                            None if parent is None else parent[1],
                        )
                    )
                exited = clock()
                self_s[TRACE] += start - entered + exited - end + outer + inner
                if parent is not None:
                    parent[0] += exited - entered + outer

        return wrapper

    def counting(self, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped to bump ``counts[key]`` per call, charged to no layer.

        The call stays in the enclosing layer's self time; the counting
        itself is booked to :data:`TRACE`.
        """
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        unseen = self.outer_s + self.inner_s

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            entered = clock()
            counts[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                cost = start - entered + clock() - end + unseen
                self_s[TRACE] += cost
                if stack:
                    stack[-1][0] += cost

        return counted

    def _replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        nbytes: Callable[[tuple, Any], int] | None = None,
    ) -> None:
        """Wrap ``owner.attr`` so its calls are charged to ``layer``."""
        self._replace(owner, attr, lambda fn: self.wrap(layer, fn, nbytes))

    def count(self, owner: object, attr: str, key: str) -> None:
        """Count calls to ``owner.attr`` as ``counts[key]``, charging no layer."""
        self._replace(owner, attr, lambda fn: self.counting(key, fn))

    def install(self) -> "LayerTracer":
        """Wrap every layer's entry points.  Call before ``build_experiment``."""
        from repro.ba.coin import CommonCoin
        from repro.ba.mmr import BinaryAgreement
        from repro.core import mempool as mempool_module
        from repro.core import node_base
        from repro.erasure.rs_code import ReedSolomonCode
        from repro.metrics.collector import MetricsCollector
        from repro.sim.events import Simulator
        from repro.sim.network import Network
        from repro.sim.pipe import Pipe
        from repro.vid import codec
        from repro.vid.avid_m import AvidMInstance
        from repro.workload import txgen

        self.patch(Simulator, "run", "sim")
        self.patch(Network, "send", "sim.network")
        self.patch(Network, "broadcast", "sim.network")
        self.patch(Pipe, "submit", "sim.pipe")

        base = node_base.BFTNodeBase
        self.patch(base, "on_message", "core")
        self.patch(base, "_epoch_timer_fired", "core")
        self.patch(base, "submit_transaction", "core.mempool")
        self.patch(base, "submit_batch", "core.mempool")
        for name in dir(mempool_module):
            cls = getattr(mempool_module, name)
            if isinstance(cls, type) and "take_batch" in cls.__dict__:
                self.patch(cls, "take_batch", "core.mempool")
        self.patch(node_base, "compute_linking_targets", "core.linking")
        self.patch(node_base, "linked_slots", "core.linking")

        self.patch(AvidMInstance, "handle", "vid")
        self.patch(AvidMInstance, "disperse", "vid")
        self.patch(AvidMInstance, "retrieve", "vid")
        # Every retrieved chunk passes _on_return_chunk; every completed
        # retrieval decodes exactly once.
        self.count(AvidMInstance, "_on_return_chunk", "vid.return_chunks")
        self.count(codec.RealCodec, "decode", "vid.decodes")
        self.count(codec.VirtualCodec, "decode", "vid.decodes")

        self.count(BinaryAgreement, "__init__", "ba.instances")
        self.patch(BinaryAgreement, "handle", "ba")
        self.patch(BinaryAgreement, "input", "ba")
        self.count(CommonCoin, "flip", "ba.coin_flips")
        self.patch(CommonCoin, "flip", "ba")

        self.patch(ReedSolomonCode, "encode", "erasure", _len_arg(1))
        self.patch(ReedSolomonCode, "encode_many", "erasure", _sum_len_arg(1))
        self.patch(ReedSolomonCode, "decode", "erasure", _len_result)
        self.patch(ReedSolomonCode, "reencode", "erasure", _len_arg(1))
        self.patch(codec, "MerkleTree", "crypto", _sum_len_arg(0))
        self.patch(codec, "verify_proof", "crypto", _len_arg(1))

        for name in dir(txgen):
            cls = getattr(txgen, name)
            if not (isinstance(cls, type) and cls.__module__ == txgen.__name__):
                continue
            if "start" not in cls.__dict__:
                continue
            for attr in _WORKLOAD_ENTRY_POINTS:
                if attr in cls.__dict__:
                    self.patch(cls, attr, "workload")

        for name, member in list(vars(MetricsCollector).items()):
            if callable(member) and not name.startswith("_"):
                self.patch(MetricsCollector, name, "metrics")
        return self

    def uninstall(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` for every layer, and the
        wrappers' own cost as ``trace.self_s``."""
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = self.calls[layer]
            metrics[f"{layer}.self_s"] = self.self_s[layer]
        metrics[f"{TRACE}.self_s"] = self.self_s[TRACE]
        return metrics

    def write_spans(self, path: Path) -> Path:
        """Write the sampled span rows as JSON lines, once, at exit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, layer, name, start, end, parent in self.spans:
                row = {
                    "id": span_id,
                    "layer": layer,
                    "name": name,
                    "start": round(start, 9),
                    "end": round(end, 9),
                    "parent": parent,
                }
                out.write(json.dumps(row) + "\n")
        return path

