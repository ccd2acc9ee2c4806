"""Span recording around the package's public functions, from outside.

``Tracer.install()`` replaces each traced function with a wrapper, on the
object that owns it and in every ``superbracket`` module that bound the
same function object by ``from .x import y`` (``cli`` binds ``classify`` as
``run_classify``; the package ``__init__`` re-exports ``classify`` under the
module's own name, so modules are reached through ``sys.modules``).
``uninstall()`` puts the originals back.

Each call becomes one span ``[name, start, end, parent, op, excluded,
attrs]`` kept in memory.  Self time is the span's duration minus its child
spans and minus ``excluded``, the wrapper's own counter bookkeeping done on
behalf of its children, so counting nonzeros at ``Matrix.rref`` is not
charged to the caller.  ``fields`` is not wrapped: its per-scalar calls are
too fine-grained; coercion volume is counted at ``Matrix.__init__``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Modules whose ``__all__`` functions are traced, plus ``cli.main``.
MODULES = ("linalg", "moduli", "sl2", "schema", "superalgebra", "classify", "constructions")
METHODS = (
    ("linalg", "Matrix", "__init__"),
    ("linalg", "Matrix", "rref"),
    ("linalg", "Matrix", "inverse"),
    ("linalg", "Matrix", "det"),
    ("sl2", "RepMatrices", "direct_sum"),
)

NAME, START, END, PARENT, OP, EXCL, ATTRS = range(7)


def _nnz(m) -> int:
    return sum(1 for row in m.data for x in row if x)


def _count_init(args, kwargs, result):
    m = args[0]
    return {"entries": m.rows * m.cols}


def _count_rref(args, kwargs, result):
    m = args[0]
    return {
        "field": str(m.field),
        "rows": m.rows,
        "cols": m.cols,
        "nnz": _nnz(m),
        "rank": len(result[1]),
    }


def _count_parse(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text.encode() if isinstance(text, str) else text)}


def _count_validate(args, kwargs, result):
    return {"violations": len(result.violations)}


def _count_morphism(args, kwargs, result):
    return {"rejected": 0 if result[0] else 1}


def _count_classify(args, kwargs, result):
    return {"case": result.case}


COUNTERS = {
    "linalg.Matrix.__init__": _count_init,
    "linalg.Matrix.rref": _count_rref,
    "schema.parse_algebra": _count_parse,
    "superalgebra.validate": _count_validate,
    "superalgebra.check_morphism": _count_morphism,
    "classify.classify": _count_classify,
}


class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = -1
        self._restore: list = []

    # --- recording -------------------------------------------------------

    def begin_op(self, op_id: int, name: str = "op"):
        self._op = op_id
        self._open(name)

    def end_op(self):
        self._close(self._stack[-1])

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, 0.0, None]
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span[START] = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                t0 = time.perf_counter()
                tracer.spans[index][ATTRS] = counter(args, kwargs, result)
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][EXCL] += time.perf_counter() - t0
            return result

        return wrapper

    # --- installing ------------------------------------------------------

    def targets(self):
        """(layer name, owner object, attribute) of every traced callable."""
        out = []
        for modname in MODULES:
            mod = sys.modules[f"superbracket.{modname}"]
            for attr in mod.__all__:
                obj = mod.__dict__.get(attr)
                if callable(obj) and not isinstance(obj, type) and getattr(
                    obj, "__module__", None
                ) == mod.__name__:
                    out.append((f"{modname}.{attr}", mod, attr))
        for modname, cls, attr in METHODS:
            owner = getattr(sys.modules[f"superbracket.{modname}"], cls)
            out.append((f"{modname}.{cls}.{attr}", owner, attr))
        out.append(("cli", sys.modules["superbracket.cli"], "main"))
        return out

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "superbracket" or n.startswith("superbracket."))
        ]
        for name, owner, attr in self.targets():
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapper = self._wrap(name, fn)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            for mod in modules:
                if mod is owner:
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, alias, fn))
                        setattr(mod, alias, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # --- output ----------------------------------------------------------

    def write_tsv(self, path):
        """One line per span: index, name, start, end, parent, op, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\tattrs\n")
            for i, s in enumerate(self.spans):
                attrs = "" if s[ATTRS] is None else ",".join(
                    f"{k}={v}" for k, v in s[ATTRS].items()
                )
                fh.write(
                    f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t{s[OP]}\t{attrs}\n"
                )


def self_times(spans) -> list:
    """Self time of each span: duration minus children and excluded time."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] - s[EXCL] for i, s in enumerate(spans)]


def layer_table(spans, ops=None) -> dict:
    """Per-layer totals {name: {"calls", "self_s"}} over the spans of the
    given op ids (all ops when None)."""
    selfs = self_times(spans)
    table: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, s in enumerate(spans):
        if ops is not None and s[OP] not in ops:
            continue
        row = table[s[NAME]]
        row["calls"] += 1
        row["self_s"] += selfs[i]
    return dict(table)


def has_ancestor(spans, index, name) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
