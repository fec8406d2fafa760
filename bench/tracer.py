"""Spans around the public functions of each pipedreams layer.

The tracer wraps library functions from outside the package by rebinding
every module attribute that holds the original object, so calls made inside
the library (phi calling bpd_pop, droop calling validate) are timed too.
Spans nest: a span records its inclusive time under its own name and under
the pair (parent span, name), which gives ratios such as phi time per
bpd_pop time of the same pops.  A recursive call of a traced function runs
untimed inside its outermost span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, class or None, span name).  With a class the
# attribute is a method looked up in the class dictionary.
TARGETS = (
    ("perm", "reduced_words", None, "perm.reduced_words"),
    ("poly", "schubert_polynomial", None, "poly.schubert_polynomial"),
    ("pipedream", "enumerate_pipe_dreams", None, "pipedream.enumerate_pipe_dreams"),
    ("pipedream", "trace_pipes", None, "pipedream.trace_pipes"),
    ("pipedream", "to_pipe_dream", "CompatibleSequence", "pipedream.to_pipe_dream"),
    ("pipedream", "perm", "PipeDream", "pipedream.perm"),
    ("bumpless", "enumerate_bpds", None, "bumpless.enumerate_bpds"),
    ("bumpless", "bpd_pop", None, "bumpless.bpd_pop"),
    ("bumpless", "bpd_insert", None, "bumpless.bpd_insert"),
    ("bumpless", "from_json", "BumplessPipeDream", "bumpless.from_json"),
    ("bumpless", "validate", "BumplessPipeDream", "bumpless.validate"),
    ("bumpless", "droop", "BumplessPipeDream", "bumpless.droop"),
    ("bijection", "phi", None, "bijection.phi"),
    ("bijection", "phi_inverse", None, "bijection.phi_inverse"),
    ("monk", "pd_x_insert", None, "monk.pd_x_insert"),
    ("monk", "pd_m_move", None, "monk.pd_m_move"),
    ("monk", "bpd_x_insert", None, "monk.bpd_x_insert"),
    ("monk", "bpd_m_move", None, "monk.bpd_m_move"),
)


class Tracer:
    """Accumulates span times and counts while installed and switched on."""

    def __init__(self):
        self.on = False
        self.busy = defaultdict(float)  # name -> inclusive seconds
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.under = defaultdict(float)  # (parent, name) -> seconds
        self._stack: list[str] = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        if not self.on or name in self._stack:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            self.raised[name] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.busy[name] += dt
            self.calls[name] += 1
            self.under[(parent, name)] += dt

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function; uninstall() restores the originals."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "pipedreams"]
        for mod_name, attr, cls_name, name in TARGETS:
            mod = sys.modules["pipedreams." + mod_name]
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(orig, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
