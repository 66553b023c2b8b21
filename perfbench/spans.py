"""In-memory span recorder that wraps the package's public functions from outside.

Every public function of the six package modules is wrapped where it is
defined and at every ``from ... import`` alias inside the package, plus
``numpy.linalg.eigvalsh``, ``numpy.linalg.eigh`` and ``numpy.kron``. Each
call records one span: name, start, end and parent. Self time is a span's
duration minus the durations of its direct children; calls are strictly
nested in one thread, so the children cover disjoint parts of the parent.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from metrics import FUNCTIONS

LAYERS = tuple(FUNCTIONS)
NUMPY_TARGETS = (
    ("eigvalsh", np.linalg, "eigvalsh"),
    ("eigh", np.linalg, "eigh"),
    ("kron", np, "kron"),
)
ROOT = "bench.body"


def public_functions(package) -> dict[str, object]:
    """Map "<module>.<function>" to each public function defined in a layer module.

    Classes are skipped; ``functools.lru_cache`` wrappers count as functions.
    """
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patched name."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = [ROOT]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.eig_matrices = 0
        self.eig_n3 = 0
        self.functions = public_functions(package)

    # -- recording -----------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_eigvalsh(self, fn):
        inner = self._wrap("numpy.eigvalsh", fn)
        tracer = self

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            n = shape[-1]
            stacked = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            tracer.eig_matrices += stacked
            tracer.eig_n3 += stacked * n**3
            return inner(a, *args, **kwargs)

        return counted

    @contextmanager
    def body(self):
        """Record one workload body as a root span."""
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.functions.items()}
        prefix = self.package.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)
        for short, owner, attr in NUMPY_TARGETS:
            fn = getattr(owner, attr)
            wrapped = self._wrap_eigvalsh(fn) if short == "eigvalsh" else self._wrap(f"numpy.{short}", fn)
            self._set(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: name id, duration and self time (duration minus direct children)."""
        names = np.array(self.name_ids, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        dur = np.array(self.ends, dtype=np.float64) - np.array(self.starts, dtype=np.float64)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        return names, dur, dur - covered

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Total calls and self seconds per recorded name."""
        names, _, self_s = self.self_times()
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=self_s, minlength=len(self.names))
        return {
            name: {"calls": int(calls[i]), "self_s": float(total[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span (name id, parent index, start, end) and the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_ids, dtype=np.int32),
            parent=np.array(self.parents, dtype=np.int32),
            start=np.array(self.starts, dtype=np.float64),
            end=np.array(self.ends, dtype=np.float64),
        )
