"""Per-layer host-time accounting for the benchmark's traced runs.

A :class:`LayerTracer` watches the interpreter from outside the program
(``sys.setprofile``) and opens a span whenever execution crosses into a
different layer, where a layer is one ``repro`` package (``repro.sim.shard``
counts as its own layer, ``shard``).  Each span has a layer, a start, an
end and a parent layer; code outside ``repro`` (the standard library,
builtins) belongs to the layer that called it.  Event-loop callbacks and
generator resumptions are attributed to the package that defines the
resumed function, so a private callback a link schedules is charged to
``net``, not to the ``sim`` loop that dispatched it.

Spans are not stored one by one -- a traced run opens millions -- but
folded into totals as they close:

- ``self_s[layer]``: span time minus the time covered by nested spans
  of other layers (nested spans of the same layer do not open a new
  span, so nothing is counted twice);
- ``calls[layer]``: spans opened in the layer;
- ``edges[(parent, layer)]``: spans opened in ``layer`` from ``parent``.

Time spent in the benchmark's own frames and before the first span is
``UNATTRIBUTED``; time blocked reading a ``multiprocessing`` pipe is the
``WAIT`` pseudo-layer (reported as ``shard.wait_s``).  By construction
the self-times of every layer, ``WAIT`` and ``UNATTRIBUTED`` sum to the
traced interval exactly.

The tracer also counts calls of a few named functions (``count``) and
records the instances of a few classes as they are constructed
(``capture``), so counters can be read from public attributes after the
run drains.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import sys
import time
from types import CodeType
from typing import Callable, Iterable, Optional

import repro

LAYERS = (
    "sim", "shard", "net", "nic", "homa", "tcp", "ktls", "core",
    "tls", "crypto", "host", "ctrl", "dns", "obs", "load",
)
WAIT = len(LAYERS)
UNATTRIBUTED = WAIT + 1
#: Row names of the totals vectors: every layer, then the two pseudo-layers.
ROWS = LAYERS + ("shard.wait", "unattributed")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_SHARD_DIR = os.path.join("sim", "shard") + os.sep
_WAIT_CODES = frozenset(
    getattr(multiprocessing.connection.Connection, name).__code__
    for name in ("recv", "recv_bytes", "poll")
)
#: The tracer currently installed in this process, if any.  A forked shard
#: worker inherits it, running, from the coordinator.
ACTIVE: Optional["LayerTracer"] = None
#: A code's layer index, or -1 for code that inherits its caller's layer.
_INHERIT = -1
#: A counted or captured code's layer is cached as ``layer + 2 * _WATCHED``,
#: which is at least ``_WATCHED`` even for ``_INHERIT``.
_WATCHED = 1 << 8


def layer_of_file(filename: str) -> int:
    """Layer index for a source file; ``_INHERIT`` outside ``repro``."""
    path = os.path.abspath(filename)
    if path.startswith(_BENCH_DIR):
        return UNATTRIBUTED
    if not path.startswith(_REPRO_DIR):
        return _INHERIT
    rel = path[len(_REPRO_DIR):]
    if rel.startswith(_SHARD_DIR):
        return LAYERS.index("shard")
    head = rel.split(os.sep, 1)[0]
    return LAYERS.index(head) if head in LAYERS else _INHERIT


class LayerTracer:
    """Fold layer-crossing spans into per-layer self-time and counts."""

    def __init__(
        self,
        count: Optional[dict[str, Iterable[Callable]]] = None,
        capture: Iterable[type] = (),
    ):
        #: counter name -> functions whose calls it counts.
        self._count_names = list(count or {})
        self._count_codes: dict[CodeType, int] = {}
        for index, name in enumerate(self._count_names):
            for fn in (count or {})[name]:
                self._count_codes[_code(fn)] = index
        self._capture_codes: dict[CodeType, type] = {
            cls.__init__.__code__: cls for cls in capture
        }
        self.instances: dict[type, list] = {cls: [] for cls in capture}
        self.self_s = [0.0] * len(ROWS)
        self.calls = [0] * len(ROWS)
        self.edges: dict[tuple[int, int], int] = {}
        self.counts = [0] * len(self._count_names)
        self._stack: list = []
        self._current = UNATTRIBUTED
        self._active = False
        self.reset()

    # -- lifecycle --------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every total and restart the interval at now.

        Open spans stay open (their frames are still on the stack); only
        the time accounted from here on counts.  Totals are zeroed in
        place because the installed hook holds the same lists.
        """
        self.self_s[:] = [0.0] * len(ROWS)
        self.calls[:] = [0] * len(ROWS)
        self.edges.clear()
        self.counts[:] = [0] * len(self._count_names)
        self._started = self._last = time.perf_counter()

    def start(self) -> None:
        """Forget captured objects, reset and begin tracing this thread."""
        for found in self.instances.values():
            found.clear()
        self._stack.clear()
        self._current = UNATTRIBUTED
        self.reset()
        self._install()

    def stop(self) -> float:
        """Stop tracing; returns the traced interval in seconds."""
        global ACTIVE
        now = time.perf_counter()
        sys.setprofile(None)
        self._active = False
        ACTIVE = None
        self.self_s[self._current] += now - self._last
        self._last = now
        return now - self._started

    def elapsed(self) -> float:
        """Traced interval so far, with the running span charged."""
        now = time.perf_counter()
        self.self_s[self._current] += now - self._last
        self._last = now
        return now - self._started

    @property
    def active(self) -> bool:
        return self._active

    def totals(self) -> dict:
        """Picklable totals: self-time, calls and named counts by row."""
        return {
            "self_s": dict(zip(ROWS, self.self_s)),
            "calls": dict(zip(ROWS, self.calls)),
            "counts": dict(zip(self._count_names, self.counts)),
            "edges": {
                f"{ROWS[p]}>{ROWS[c]}": n for (p, c), n in sorted(self.edges.items())
            },
        }

    # -- the profile hook -------------------------------------------------------------

    def _install(self) -> None:
        cache: dict[CodeType, int] = {}
        count_codes = self._count_codes
        capture_codes = self._capture_codes
        instances = self.instances
        counts = self.counts
        self_s = self.self_s
        calls = self.calls
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def classify(code: CodeType) -> int:
            if code in _WAIT_CODES:
                layer = WAIT
            else:
                layer = layer_of_file(code.co_filename)
            if code in count_codes or code in capture_codes:
                layer += _WATCHED * 2
            cache[code] = layer
            return layer

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                layer = cache.get(code)
                if layer is None:
                    layer = classify(code)
                if layer >= _WATCHED:
                    layer -= _WATCHED * 2
                    index = count_codes.get(code)
                    if index is not None:
                        counts[index] += 1
                    cls = capture_codes.get(code)
                    if cls is not None:
                        instances[cls].append(frame.f_locals["self"])
                if layer < 0 or layer == tracer._current:
                    return
                now = clock()
                parent = tracer._current
                self_s[parent] += now - tracer._last
                tracer._last = now
                stack.append((frame, parent))
                tracer._current = layer
                calls[layer] += 1
                key = (parent, layer)
                edges[key] = edges.get(key, 0) + 1
            elif event == "return":
                if stack and stack[-1][0] is frame:
                    now = clock()
                    self_s[tracer._current] += now - tracer._last
                    tracer._last = now
                    tracer._current = stack.pop()[1]

        global ACTIVE
        self._active = True
        ACTIVE = self
        sys.setprofile(hook)


def _code(fn: Callable) -> CodeType:
    """The code object behind a function, method, classmethod or staticmethod."""
    fn = getattr(fn, "__func__", fn)
    return fn.__code__
