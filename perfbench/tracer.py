"""Span recorder installed around the package's public functions from
outside the package.

``Tracer.install`` wraps every public function of every ``selpref``
module, every public method, classmethod and staticmethod of the classes
those modules define (enums, exceptions and protocols excepted) and the
constructors named in ``EXTRA``. It rebinds each wrapped function in every
module that imported it and in the default arguments of the others (as
``OMCSIndex(lemmatizer=lemmatize)``), so calls across modules are
recorded too.
Calling a generator function records one span per ``next``.

A span is (name, start ns, end ns, parent span, size), where size is
``len()`` of the result or yielded item, or -1. Spans stay in five
in-memory arrays and are written once, by ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from array import array
from enum import Enum

# constructors that do a layer's work and are traced despite the dunder
EXTRA = {("commonsense", "OMCSIndex", "__init__")}


def _size(value) -> int:
    try:
        return len(value)
    except TypeError:
        return -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self._stack: list[int] = []
        self._wrapped: list = []        # the original functions

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(-1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.size[idx] = _size(item)
                    yield item
            traced = traced_gen
        else:
            def traced(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer.size[idx] = _size(result)
                return result
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        self._wrapped.append(fn)
        return traced

    def install(self, package_name: str = "selpref") -> int:
        """Wrap the package's public callables; returns how many."""
        package = importlib.import_module(package_name)
        modules = [importlib.import_module(f"{package_name}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        replaced: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not (
                    issubclass(obj, (Enum, BaseException)) or getattr(obj, "_is_protocol", False)
                ):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
        for fn in self._wrapped:
            if fn.__defaults__:
                fn.__defaults__ = tuple(replaced.get(id(d), d) for d in fn.__defaults__)
        return len(self._wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            public = not attr.startswith("_") or (layer, cls.__name__, attr) in EXTRA
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                setattr(cls, attr, self.wrap(name, val))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, val.__func__)))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, val.__func__)))

    def dump(self, path, meta: dict) -> None:
        """Write every span once, as one record: a JSON header line, then
        the arrays. Files of records can be concatenated."""
        with open(path, "wb") as fh:
            header = {**meta, "names": self.names, "n": len(self.start)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.size):
                arr.tofile(fh)


def load_records(path):
    """Read the ``dump`` records of a file back as (header, numpy columns)."""
    import numpy as np

    records = []
    with open(path, "rb") as fh:
        for line in iter(fh.readline, b""):
            header = json.loads(line)
            cols = {}
            for key, code in (("name", "i"), ("parent", "i"), ("start", "q"),
                              ("end", "q"), ("size", "q")):
                arr = array(code)
                arr.fromfile(fh, header["n"])
                cols[key] = np.array(arr, dtype=np.int32 if code == "i" else np.int64)
            records.append((header, cols))
    return records
