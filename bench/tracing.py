"""Per-layer tracing of scidkit from outside the package.

:class:`Tracer` replaces the public functions of each layer module (and a
few named methods) with wrappers while installed, and restores the originals
on uninstall.  A function is replaced under every name it is bound to in any
scidkit module: ``search``, ``scid`` and ``construct`` import ``intersect``,
``rref`` and ``analyze`` with ``from ... import``, so patching only the
defining module would miss their calls.

Span wrappers record (name, parent, start, end) into flat arrays kept in
memory.  Field arithmetic and generator functions get count-only wrappers:
a span per ``FieldSpec.mul`` would cost more than the multiplication, and a
generator's work happens after its call returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("gf", "linalg", "scid", "bounds", "construct", "search", "cli")

# Methods wrapped with spans in addition to the public module functions.
SPAN_METHODS = (
    ("linalg", "Echelon", "insert"),
    ("linalg", "Echelon", "copy"),
    ("scid", "SubspaceFamily", "from_dict"),
)
COUNT_METHODS = (
    ("gf", "FieldSpec", "add"),
    ("gf", "FieldSpec", "sub"),
    ("gf", "FieldSpec", "mul"),
    ("gf", "FieldSpec", "inv"),
)


def self_times(names, parents, starts, ends) -> list[float]:
    """Self time of each span: its duration minus its children's durations.

    `parents[i]` is the index of span i's parent, or -1 for a root.  Spans
    nest (a child lies within its parent), so the children's durations are
    exactly the part of the parent's interval they cover.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class Tracer:
    def __init__(self):
        self.table: list[str] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter[str] = Counter()
        # Dimensions of the intersections computed by the search module.
        self.search_meets: Counter[int] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str, on_result=None):
        nid = len(self.table)
        self.table.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(t0)
            ends.append(t0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        import scidkit

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "scidkit" or n.startswith("scidkit.")]
        for layer in LAYERS:
            mod = getattr(scidkit, layer)
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapped = {None: self._count(fn, name)}
                else:
                    wrapped = {None: self._span(fn, name)}
                    if (layer, attr) == ("linalg", "intersect"):
                        wrapped["scidkit.search"] = self._span(
                            fn, name, lambda s: self.search_meets.update((s.dim,)))
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, bound, wrapped.get(m.__name__, wrapped[None]))
        for layer, cls_name, attr in SPAN_METHODS + COUNT_METHODS:
            cls = getattr(getattr(scidkit, layer), cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            make = self._count if (layer, cls_name, attr) in COUNT_METHODS else self._span
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(make(raw.__func__, name)))
            else:
                self._patch(cls, attr, make(raw, name))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.names, self.parents, self.starts, self.ends):
            del arr[:]
        self.counts.clear()
        self.search_meets.clear()

    def calls(self) -> Counter[str]:
        """Calls per wrapped name, span and count-only wrappers alike."""
        out = Counter(self.counts)
        for nid, c in Counter(self.names).items():
            out[self.table[nid]] += c
        return out

    def self_by_name(self) -> Counter[str]:
        out: Counter[str] = Counter()
        table = self.table
        for nid, s in zip(self.names, self_times(self.names, self.parents, self.starts, self.ends)):
            out[table[nid]] += s
        return out

    def write(self, stem: Path) -> None:
        """Spans to `stem`.bin (four flat arrays) with a `stem`.json index."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        index = {
            "spans": len(self.names),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "names": self.table,
            "counts": dict(sorted(self.counts.items())),
        }
        stem.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")


def read_spans(stem: Path) -> tuple[list[str], list[tuple[str, int, float, float]]]:
    """Inverse of :meth:`Tracer.write`: the name table and (name, parent, start, end) rows."""
    index = json.loads(stem.with_suffix(".json").read_text())
    n = index["spans"]
    arrays = []
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for _, code in index["arrays"]:
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    names = index["names"]
    return names, [(names[a], b, c, d) for a, b, c, d in zip(*arrays)]
