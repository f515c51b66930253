"""Span tracing of a package from outside, by wrapping its public callables.

``Tracer.install`` replaces every public function, every public method and
every class constructor defined in the given modules with a wrapper that
records a span (name, start, end, parent, run id).  A function that another
module imported by name is patched there too, so ``rankprompt.model``'s
``calibrate_rows`` is traced like ``rankprompt.sms.calibrate_rows``.
Generator functions get one span per ``next()``, so the consumer's work
between items is not charged to the generator.  ``uninstall`` puts every
original attribute back.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, modules, prefix: str):
        """``modules`` maps a short span prefix ("sms") to a module object;
        every loaded module whose name starts with ``prefix`` is patched
        wherever it holds a reference to a wrapped function."""
        self.modules = modules
        self.prefix = prefix
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(f"{short}.{attr}", obj)
        holders = [m for n, m in sorted(sys.modules.items()) if n == self.prefix or n.startswith(self.prefix + ".")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _install_class(self, name: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__init__":
                self._set(cls, attr, self._wrap(name, obj))
            elif not attr.startswith("_"):
                self._set(cls, attr, self._wrap(f"{name}.{attr}", obj))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": run_id})
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    ``spans`` holds (name, start, end, parent, run) records whose parent is
    an index into the same list, or -1 for a root.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            c_start, c_end = max(spans[c][1], start), min(spans[c][2], end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out
