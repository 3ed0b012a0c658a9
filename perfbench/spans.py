"""Spans recorded around calls into the package's layers, kept in memory.

A span is (name, start, end, parent).  The benchmark opens spans around the
public functions it calls, and patched() swaps tracing wrappers in for the
bitvec functions that the solver module calls, so solver spans get bitvec
children.  Nothing inside the package changes.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# bitvec functions as the solver module names them
SOLVER_BITVEC = (
    "align_block_zs",
    "block_weights_batch",
    "draw_block_zs",
    "pack_rows",
    "permute_columns",
    "random_permutation",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def call(self, name: str, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "bitvec.block_weights_batch":
            # also count the weights computed: rows x z draws
            def traced(a, b):
                self.counts["bitvec.block_weights"] += a.shape[0] * b.shape[0]
                return self.call(name, fn, a, b)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self, solver_module):
        """Route the solver module's bitvec calls through spans for the duration."""
        saved = {attr: getattr(solver_module, attr) for attr in SOLVER_BITVEC}
        for attr, fn in saved.items():
            setattr(solver_module, attr, self._wrap(f"bitvec.{attr}", fn))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(solver_module, attr, fn)

    def totals(self) -> dict[str, tuple[float, int, float]]:
        """Per span name: (total seconds, calls, self seconds)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        k = len(self.names)
        tot = np.bincount(name, weights=dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=own, minlength=k)
        return {n: (float(tot[i]), int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write every span as gzip CSV: id,name,start,end,parent (parent -1 at the top)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
            fh.write("id,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")
