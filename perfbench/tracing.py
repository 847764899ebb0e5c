"""Span tracing of the fsz_forge layers, installed from outside the package.

Nothing under src/ knows about this module.  install() replaces every
public function and method of the layer modules with a wrapper that
records one span per call: name, start, end, parent span and run id.
Hot names are imported by value across modules (spgroup holds its own
reference to mixedmod.mat_apply, fszcheck to gncount.SpjIndexed, ...),
so each wrapper is written into every fsz_forge namespace that holds the
original object.

The cli layer is traced at its entry point only: cli.run's self time is
the layer's own work (argument parsing, dispatch, report serialization).

Spans live in memory and are written as JSON lines when a run ends.
Calls made from worker threads (the chunked numpy kernels) take as
parent the innermost open span of the main thread, which is the call
waiting for them; their intervals may overlap, so self time subtracts
the union of the child intervals, never their sum.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("mixedmod", "construction", "spgroup", "gncount", "fszcheck", "cli")
ENTRY_ONLY = {"cli": ("run",)}

clock = time.perf_counter


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    outer: bool  # no enclosing span has the same name
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one run id; one Tracer per traced round."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.raw: list[tuple] = []  # Span fields; tuples keep recording cheap
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_ids: list[int] = []
        self._main_names: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _stacks(self) -> tuple[list[int], list[str], list[int], list[str]]:
        """(own ids, own names, ids to inherit, names to inherit)."""
        local = self._local
        ids = getattr(local, "ids", None)
        if ids is None:
            if threading.current_thread() is self._main:
                local.ids, local.names = self._main_ids, self._main_names
            else:
                local.ids, local.names = [], []
            ids = local.ids
        names = local.names
        if ids or ids is self._main_ids:
            return ids, names, ids, names
        return ids, names, self._main_ids, self._main_names

    def wrap(self, name: str, fn, annotate=None):
        raw, ids_counter = self.raw, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ids, names, up_ids, up_names = self._stacks()
            parent = up_ids[-1] if up_ids else None
            outer = name not in up_names
            sid = next(ids_counter)
            ids.append(sid)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raw.append((sid, name, start, clock(), parent, outer, None))
                raise
            else:
                end = clock()
            finally:
                ids.pop()
                names.pop()
            attrs = annotate(args, kwargs, result) if annotate else None
            raw.append((sid, name, start, end, parent, outer, attrs))
            return result

        return traced

    def install(self, annotations: dict | None = None) -> None:
        """Wrap the public callables of every layer module in place."""
        annotations = annotations or {}
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "fsz_forge" or k.startswith("fsz_forge.")]
        for qualname, owner, attr, original in discover():
            wrapper = self.wrap(qualname, original, annotations.get(qualname))
            self.originals[qualname] = original
            if isinstance(owner, type):
                self._swap(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._swap(ns, key, wrapper)

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def spans(self) -> list[Span]:
        return sorted((Span(*t) for t in self.raw), key=lambda s: s.sid)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span; gzip-compressed when path ends in .gz."""
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as fh:
            for s in self.spans():
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.sid, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


def discover():
    """(qualified name, owner, attribute, original) for each traced callable."""
    out = []
    for layer in LAYERS:
        module = importlib.import_module(f"fsz_forge.{layer}")
        modname = module.__name__
        only = ENTRY_ONLY.get(layer)
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or (only is not None and attr not in only):
                continue
            if getattr(obj, "__module__", None) != modname:
                continue
            if isinstance(obj, type):
                if only is not None or issubclass(obj, BaseException):
                    continue
                for mattr, meth in sorted(vars(obj).items()):
                    if not mattr.startswith("_") and callable(meth) \
                            and not isinstance(meth, (staticmethod, classmethod, type)):
                        out.append((f"{layer}.{attr}.{mattr}", obj, mattr, meth))
            elif callable(obj):
                out.append((f"{layer}.{attr}", module, attr, obj))
    return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - union_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


@dataclass
class NameStats:
    calls: int = 0
    s: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0
    attrs: dict = field(default_factory=lambda: defaultdict(float))


def aggregate(spans: list[Span]) -> dict[str, NameStats]:
    selfs = self_times(spans)
    out: dict[str, NameStats] = defaultdict(NameStats)
    for s in spans:
        st = out[s.name]
        st.calls += 1
        st.self_s += selfs[s.sid]
        if s.outer:
            st.s += s.duration
        for k, v in (s.attrs or {}).items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                st.attrs[k] += v
            else:
                st.attrs[f"{k}={v}"] += 1
                st.attrs[f"{k}={v}.s"] += s.duration
                st.attrs[f"{k}={v}.self_s"] += selfs[s.sid]
    return out


def top_level_seconds(spans: list[Span]) -> float:
    return sum(s.duration for s in spans if s.parent is None)
