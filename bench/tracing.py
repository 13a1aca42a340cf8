"""Outside-in layer tracing: wrap pialg's public functions from the outside.

``Tracer.install`` replaces every public function of the layer modules
(and ``IntMatrix.__init__``) with a wrapper that records a span: name,
start, end and parent span. ``from .fgab import tensor`` copies the
binding into the importing module, so each wrapper is rebound in every
pialg module that holds the original object, not only in the defining
one. ``Tracer.uninstall`` puts every original back.

Spans stay in memory, in flat arrays, until ``summary`` folds them into
per-function call counts, total time and self time (a span's duration minus
the time its child spans cover). Bookkeeping done by the observers that
compute counters is excluded from every enclosing span.
"""

from __future__ import annotations

import sys
import time
from array import array

from common import max_digits

LAYERS = ("intlinalg", "fgab", "quadratic", "tables", "pi_functors", "realizability", "cli")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class _Counters:
    """Per-function counters computed from arguments and results."""

    def __init__(self, pialg):
        self._dumps = pialg.dumps_tables
        self._tables_text = {}  # id -> (tables, text); the reference pins the id
        self.seen = {}
        self.repeats = {}
        self.values = {}

    def new_pass(self):
        """Repeats are counted within a pass; forget the arguments seen so far."""
        self.seen = {}

    def _tables_key(self, tables):
        hit = self._tables_text.get(id(tables))
        if hit is None or hit[0] is not tables:
            hit = (tables, self._dumps(tables))
            self._tables_text[id(tables)] = hit
        return hit[1]

    def _repeat(self, name, key):
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.repeats[name] = self.repeats.get(name, 0) + 1
        else:
            seen.add(key)

    def _max(self, key, value):
        if value > self.values.get(key, 0):
            self.values[key] = value

    def _add(self, key, value):
        self.values[key] = self.values.get(key, 0) + value

    def observe(self, name, args, kwargs, result):
        if name == "intlinalg.smith_normal_form":
            m = args[0]
            self._max("intlinalg.smith_normal_form.max_cells", m.rows * m.cols)
            self._max("intlinalg.smith_normal_form.max_digits",
                      max(max_digits(result.u.data), max_digits(result.v.data)))
        elif name == "intlinalg.solve_linear":
            self._add("intlinalg.solve_linear.solved", result is not None)
        elif name == "fgab.factor_through":
            self._add("fgab.factor_through.found", result is not None)
        elif name == "fgab.tensor":
            self._repeat(name, (args[0], args[1]))
        elif name == "fgab.stack_homs":
            self._max("fgab.stack_homs.max_dim", result[0].target.dim)
        elif name == "tables.admissible_gamma_completions":
            self._repeat(name, (args[0], self._tables_key(args[1])))
            self._max("tables.admissible_gamma_completions.completions_max", len(result))
        elif name == "pi_functors.gamma_tilde":
            n, k, a, tables = args
            self._repeat(name, (n, k, a, self._tables_key(tables)))
        elif name == "realizability.check_stable":
            self._add("realizability.check_stable.completions_examined", len(result.completions))


# Functions whose arguments or results feed a counter.
OBSERVED = frozenset((
    "intlinalg.smith_normal_form", "intlinalg.solve_linear", "fgab.factor_through",
    "fgab.tensor", "fgab.stack_homs", "tables.admissible_gamma_completions",
    "pi_functors.gamma_tilde", "realizability.check_stable",
))


class Tracer:
    def __init__(self, pialg):
        self._pialg = pialg
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._excluded = 0.0  # observer time, subtracted from enclosing spans
        self._patches = []  # (owner, attribute, original)
        self.counters = _Counters(pialg)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, qualname, fn):
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        observe = self.counters.observe if qualname in OBSERVED else None
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            excluded = tracer._excluded
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0 - excluded
                span_end[idx] = t1 - tracer._excluded
            if observe is not None:
                o0 = clock()
                observe(qualname, args, kwargs, result)
                tracer._excluded += clock() - o0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pialg" or name.startswith("pialg."))]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"pialg.{layer}"]
            for name, fn in _public_functions(mod):
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cls = self._pialg.intlinalg.IntMatrix
        init = cls.__dict__["__init__"]
        self._patches.append((cls, "__init__", init))
        setattr(cls, "__init__", self._wrap("intlinalg.IntMatrix.init", init))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def summary(self):
        """{function: {"calls", "total_s", "self_s"}} over every recorded span."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        child = [0.0] * len(self.span_name)
        for i in range(len(self.span_name)):
            d = self.span_end[i] - self.span_start[i]
            total[self.span_name[i]] += d
            calls[self.span_name[i]] += 1
            p = self.span_parent[i]
            if p >= 0:
                child[p] += d
        self_s = [0.0] * n_names
        for i in range(len(self.span_name)):
            self_s[self.span_name[i]] += (self.span_end[i] - self.span_start[i]) - child[i]
        return {self.names[j]: {"calls": calls[j], "total_s": total[j], "self_s": self_s[j]}
                for j in range(n_names)}
