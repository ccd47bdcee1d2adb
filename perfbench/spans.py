"""Layer spans and call counters recorded from outside the program.

A span times one call into a layer's public function.  The two inner
operations every geometric layer leans on, integer row reduction and the
strict-feasibility oracle, are wrapped wherever a ``primeul`` module binds
them; their calls are aggregated per enclosing span as a count and a time,
not stored one by one.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Calls outside every layer span are aggregated under this name and left
# out of the layer metrics.
OUTSIDE = "-"

WRAPPED = (("primeul.linalg", "rref_int"),
           ("primeul.feasibility", "strict_feasible_point"))


class Tracer:
    def __init__(self):
        self.current = OUTSIDE
        self.spans: dict[str, list] = {}   # name -> [count, seconds]
        self.calls: dict[str, list] = {}   # "span|callee" -> [count, seconds]

    @contextmanager
    def span(self, name: str):
        parent = self.current
        self.current = name
        start = time.perf_counter()
        try:
            yield
        finally:
            agg = self.spans.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += time.perf_counter() - start
            self.current = parent

    def _wrap(self, callee: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                agg = self.calls.setdefault(f"{self.current}|{callee}", [0, 0.0])
                agg[0] += 1
                agg[1] += time.perf_counter() - start
        return wrapper

    def install(self):
        """Rebind the wrapped functions in every loaded primeul module."""
        for module_name, attr in WRAPPED:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(attr, original)
            for name, module in list(sys.modules.items()):
                if (name == "primeul" or name.startswith("primeul.")) and \
                        getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
