"""Per-layer tracing of khfront from outside the package.

A layer is a module of the package.  Its boundary functions are the
public functions that another module of the package imports, plus the
console entry point ``cli.main``; calls between functions of one module
stay inside the caller's span.  The tracer replaces each boundary
function, in every module that holds it, by a wrapper that records a span
in thread CPU time.  Thread CPU time keeps the accounting exact when the
``corpus`` command runs fronts on worker threads: the waiting main thread
accrues nothing, and the workers' spans add up to the time they held the
interpreter.

A span's self time is its duration minus the durations of the spans it
called.  Self times of all spans in one op therefore sum to the CPU time
that op consumed inside ``cli.main``.
"""

from __future__ import annotations

import gc
import inspect
import sys
import threading
import time
import types
from typing import Callable, Optional

ENTRY_POINTS = {("cli", "main")}


class UncountedReference(RuntimeError):
    """A wrapped function is reachable through a reference the tracer did
    not patch, so calls through it would go unrecorded."""


class Table:
    """Spans and counters of a group of ops."""

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, self s, total s]
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def calls(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2]


class LayerTracer:
    """Wraps the boundary functions of ``package`` while installed.

    ``hooks`` maps a function name such as ``"tait.tait_graph"`` to a
    callable ``(table, args, kwargs, result)`` that updates counters.
    """

    def __init__(self, package: str, hooks: Optional[dict[str, Callable]] = None):
        self.package = package
        self.hooks = hooks or {}
        self.table = Table()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: dict[str, types.FunctionType] = {}
        self._wrappers: dict[str, Callable] = {}
        self._patched: list[tuple[types.ModuleType, str, types.FunctionType]] = []
        self._verified = False

    # -- discovery and patching ---------------------------------------------

    def _modules(self) -> dict[str, types.ModuleType]:
        p = self.package
        return {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == p or name.startswith(p + "."))
        }

    def _discover(self) -> None:
        modules = self._modules()
        holders: dict[int, int] = {}  # id of a module attribute -> modules holding it
        for mod in modules.values():
            for obj in {id(v) for v in vars(mod).values()}:
                holders[obj] = holders.get(obj, 0) + 1
        for mod_name, mod in modules.items():
            layer = mod_name.rpartition(".")[2]
            if mod_name == self.package:
                continue
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod_name
                ):
                    continue
                if holders[id(obj)] > 1 or (layer, attr) in ENTRY_POINTS:
                    name = f"{layer}.{attr}"
                    self._originals[name] = obj
                    self._wrappers[name] = self._wrap(name, obj)

    def install(self) -> None:
        """Patch every module of the package that holds a boundary
        function; on first use, check nothing else holds one."""
        if not self._originals:
            self._discover()
        by_id = {id(f): name for name, f in self._originals.items()}
        for mod in self._modules().values():
            for attr, obj in list(vars(mod).items()):
                name = by_id.get(id(obj))
                if name is not None:
                    setattr(mod, attr, self._wrappers[name])
                    self._patched.append((mod, attr, obj))
        if not self._verified:
            self._verify(by_id)
            self._verified = True

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _verify(self, by_id: dict[int, str]) -> None:
        """Fail loudly on any reference to an original the patch missed:
        a module outside the package that imported it, or a container or
        closure holding it."""
        for mod_name, mod in list(sys.modules.items()):
            for attr, obj in list(vars(mod).items()) if mod is not None else ():
                if id(obj) in by_id:
                    raise UncountedReference(
                        f"{mod_name}.{attr} holds {by_id[id(obj)]}, "
                        "which the tracer did not patch"
                    )
        own = {id(self._originals), id(self._patched), id(by_id)}
        own |= {
            id(cell)
            for w in self._wrappers.values()
            for cell in (w.__closure__ or ())
        }
        for name in list(self._originals):  # items() would add a tuple
            for ref in gc.get_referrers(self._originals[name]):
                if id(ref) in own or isinstance(ref, tuple) and ref in self._patched:
                    continue
                raise UncountedReference(
                    f"{name} is held by a {type(ref).__name__} the tracer "
                    "cannot patch; calls through it would go uncounted"
                )

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _close(self, name: str, frame: list[float], stack: list, count_call: bool) -> None:
        total = time.thread_time() - frame[0]
        stack.pop()
        if stack:
            stack[-1][1] += total
        with self._lock:
            st = self.table.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += count_call
            st[1] += total - frame[1]
            st[2] += total

    def _wrap(self, name: str, fn: types.FunctionType) -> Callable:
        hook = self.hooks.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, hook)

        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [time.thread_time(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, stack, True)
            if hook is not None:
                with self._lock:
                    hook(self.table, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_generator(self, name: str, fn: types.FunctionType, hook) -> Callable:
        """Each resumption of the generator is a span; items are counted
        through the hook with ``result`` set to the number yielded."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            items = 0
            first = True
            try:
                while True:
                    stack = self._stack()
                    frame = [time.thread_time(), 0.0]
                    stack.append(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, frame, stack, first)
                        first = False
                    items += 1
                    yield item
            finally:
                inner.close()
                if hook is not None:
                    with self._lock:
                        hook(self.table, args, kwargs, items)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced
