"""Outside-in tracing: timing wrappers around a program's public functions.

A :class:`Tracer` replaces each target function object in every loaded
module namespace of the program's package that binds it, and each
target method on the class that defines it, so the program runs
unmodified while every call into a layer opens a span.  Spans live on a
per-thread stack.  A span's *self time* is its duration minus the
durations of the wrapped calls made directly inside it, so the self
times recorded in one thread add up to the durations of its outermost
spans (``top_s``).

Records stay in memory and are written once per process, as
``<out_dir>/<pid>.json``: by :meth:`Tracer.flush` in the process that
installed the wrappers, and through ``multiprocessing.util.Finalize`` in
forked pool workers, which inherit the wrappers and start with empty
records.

Run a program under the tracer with::

    python -m benchmarks.e2e.tracer --out DIR module:function -- ARGS...

which, inside a root span of layer ``other``, imports ``module``,
installs :data:`benchmarks.e2e.layers.TARGETS` and calls
``function(ARGS)``; then it restores every patched attribute and flushes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import threading
import time
import types
from pathlib import Path
from typing import Any, Callable, Iterable

#: ``hook(tracer, args, kwargs, result, elapsed_s, outermost)``, called
#: after a successful wrapped call to record counts or repeat keys.
Hook = Callable[..., None]


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Per-process span records for wrapped calls, keyed by layer."""

    def __init__(self, out_dir: str | Path | None = None) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.root_pid = os.getpid()
        self._patches: list[tuple[Any, str, Any]] = []
        self._active = False
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)
        multiprocessing.util.register_after_fork(self, Tracer._arm_flush)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.started = time.perf_counter()
        #: layer -> summed self time (s), over every thread.
        self.self_s: dict[str, float] = {}
        #: layer -> calls not nested inside another call of that layer.
        self.calls: dict[str, int] = {}
        #: metric name -> amount, from hooks.
        self.counts: dict[str, float] = {}
        #: key family -> call keys in call order, from hooks.
        self.keys: dict[str, list[str]] = {}
        #: summed duration of spans with no enclosing span in their thread.
        self.top_s = 0.0
        #: duration of the root span :func:`main` runs the program in.
        self.root_s = 0.0
        #: scratch space for hooks that link one call to a later one.
        self.memo: dict[Any, Any] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _record(
        self, layer: str, self_s: float, outermost: bool, top_s: float
    ) -> None:
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s
            if outermost:
                self.calls[layer] = self.calls.get(layer, 0) + 1
            self.top_s += top_s

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the hook counter ``name``."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def key(self, family: str, key: str) -> None:
        """Append one call key (repeats are counted at merge time)."""
        with self._lock:
            self.keys.setdefault(family, []).append(key)

    def wrap(self, layer: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` inside a span of ``layer``; ``hook`` runs after it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            outermost = all(frame.layer != layer for frame in stack)
            frame = _Frame(layer)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                tracer._record(
                    layer, elapsed - frame.child_s, outermost,
                    0.0 if stack else elapsed,
                )
            if hook is not None:
                hook(tracer, args, kwargs, result, elapsed, outermost)
            return result

        return traced

    # -- installing -----------------------------------------------------

    def install(
        self,
        targets: Iterable[tuple[str, str, str, Hook | None]],
        package: str = "repro",
    ) -> None:
        """Wrap every ``(layer, module, qualname, hook)`` target.

        A module-level function is replaced in every loaded ``package``
        module that binds the same object, so ``from x import f`` copies
        are traced too; ``Class.method`` is replaced on ``Class``, which
        must define it.
        """
        if self._active:
            raise RuntimeError("tracer already installed")
        for layer, module_name, qualname, hook in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(attr)
            if not isinstance(original, types.FunctionType):
                raise TypeError(
                    f"{module_name}:{qualname} is not a function defined there"
                )
            wrapper = self.wrap(layer, original, hook)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for namespace in _package_modules(package):
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, name, wrapper)
        self._active = True

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put back every patched attribute (the original objects)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._active = False

    def _after_fork(self) -> None:
        # The child inherits the forking thread's open spans and the
        # parent's records; it starts over so nothing is counted twice.
        if self._active:
            self._reset()

    def _arm_flush(self) -> None:
        if self._active and self.out_dir is not None:
            multiprocessing.util.Finalize(None, self.flush, exitpriority=0)

    # -- output ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """This process's records as a JSON-able document."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "root": os.getpid() == self.root_pid,
                "lifetime_s": time.perf_counter() - self.started,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "keys": {name: list(keys) for name, keys in self.keys.items()},
                "top_s": self.top_s,
                "root_s": self.root_s,
            }

    def flush(self) -> None:
        """Write :meth:`snapshot` to ``<out_dir>/<pid>.json``."""
        if self.out_dir is None:
            return
        path = self.out_dir / f"{os.getpid()}.json"
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(self.snapshot()))
        os.replace(temp, path)


def _package_modules(package: str) -> list[types.ModuleType]:
    prefix = package + "."
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(prefix))
    ]


def load_records(directory: str | Path) -> list[dict[str, Any]]:
    """Every per-process record a traced run left in ``directory``."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("*.json"))
    ]


def main(argv: list[str] | None = None) -> int:
    """Run ``module:function(ARGS)`` with the layer wrappers installed."""
    from benchmarks.e2e.layers import TARGETS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="record directory")
    parser.add_argument("entry", help="module:function taking an argv list")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    args = options.args[1:] if options.args[:1] == ["--"] else options.args
    module_name, _, function_name = options.entry.partition(":")
    Path(options.out).mkdir(parents=True, exist_ok=True)
    tracer = Tracer(options.out)

    def program(argv: list[str]) -> Any:
        # Importing the program and installing the wrappers happen in the
        # root span too, so its time is all of the process's but start-up.
        entry = getattr(importlib.import_module(module_name), function_name)
        tracer.install(TARGETS)
        return entry(argv)

    started = time.perf_counter()
    try:
        return tracer.wrap("other", program)(args)
    finally:
        tracer.root_s = time.perf_counter() - started
        tracer.uninstall()
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main())
