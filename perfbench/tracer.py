"""In-process tracing of the scodes layers, from outside the package.

`Tracer.install()` replaces the public functions of each layer module, in
every `scodes` namespace that holds them (so calls made inside the package
are caught too), with wrappers; `uninstall()` puts the originals back.

- Coarse calls (constructions, verification, file I/O, CLI commands and the
  Gabidulin evaluator) record a span: name, start, end, parent span and the
  time spent in wrapped callees.
- Every other wrapped function only adds to aggregate counters (calls,
  inclusive time, layer self time), so that millions of kernel calls keep
  the trace small.
- GF(q) arithmetic is far too fine-grained to time: calls entering the
  `gfq` layer are counted, and their time stays in the caller's self time.

Self time of a call is its duration minus the time of wrapped callees.
Functions without a self-time metric of their own (SELF_TIMED) are
transparent inside their layer: when one is called from the same layer,
its self time goes to the caller (`rank` under a distance call, `lift`
under `lifted_mrd`).  So each function in SELF_TIMED reports the time
spent in its own layer under it, excluding other reported functions and
other layers, and the self times of a layer's functions add up to the
layer's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("gfq", "qcombi", "spaces", "rankmetric", "constructions",
          "divisible", "bounds", "verify", "cli")

# Functions that get a span per call; everything else is aggregated.
SPAN_LAYERS = ("constructions", "verify", "cli")
SPAN_EXTRA = {"rankmetric.gabidulin", "rankmetric.rect_mrd", "rankmetric.fdrm_construct",
              "rankmetric.mrd_coset_partition", "rankmetric.restricted_rank_code"}
NO_SPAN = {"constructions.lift"}  # called once per codeword

# Several functions that form one kernel share a counter; a call from one
# of them into another (the capped distance falling back to the plain one,
# module-level best_upper delegating to the engine) counts once.
RENAME = {"spaces.subspace_distance": "spaces.distance",
          "spaces.subspace_distance_capped": "spaces.distance"}

# Functions whose self time is reported as a per-layer metric.
SELF_TIMED = ("spaces.rref", "spaces.distance", "rankmetric.gabidulin", "qcombi.gauss_binomial",
              "divisible.sharp_floor", "constructions.lifted_mrd", "constructions.echelon_ferrers",
              "constructions.linkage", "constructions.coset_construction", "constructions.combine",
              "verify.min_distance", "cli.write_code_file", "cli.read_code_file")

COUNTED_CLASSES = {"gfq": ("FieldSpec", "ExtField")}
TIMED_CLASSES = {"bounds": ("BoundEngine",)}
OBSERVED = ("bounds.best_upper", "bounds.best_lower")


def _public_functions(owner, modname):
    """Public functions of a module (including lru_cache-wrapped ones) or
    plain methods of a class, defined in `modname`."""
    for name, obj in vars(owner).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if isinstance(owner, type) and not inspect.isfunction(obj):
            continue
        if getattr(obj, "__module__", None) == modname:
            yield name, obj


# Functions whose results are sized: the sum lands in Stat.items.
RESULT_SIZE = {"rankmetric.gabidulin": lambda code: len(code.words)}


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.items = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []  # [name, start, end, parent, child_s]
        self._stack: list[list] = []  # frames [name, fn, layer, child_s, nested_self_s]
        self._span_stack: list[int] = []
        self.gfq_calls = 0
        self._in_gfq = False
        self._paused = False
        # per observed function: [distinct argument tuples, distinct (engine, args), repeats]
        self.args_seen = {name: [set(), set(), 0] for name in OBSERVED}
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_gfq:
                return fn(*args, **kwargs)
            tracer._in_gfq = True
            tracer.gfq_calls += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_gfq = False

        return wrapper

    def _timed(self, name, layer, fn, span):
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        transparent = name not in SELF_TIMED
        observe = self._observer(name) if name in self.args_seen else None
        size = RESULT_SIZE.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused or (stack and stack[-1][0] == name and stack[-1][1] is not fn):
                return fn(*args, **kwargs)
            if observe is not None:
                observe(args)
            frame = [name, fn, layer, 0.0, 0.0]
            sid = tracer._open_span(name) if span else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    st.items += size(result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[3]
                st.calls += 1
                st.incl_s += dt
                if stack:
                    parent = stack[-1]
                    parent[3] += dt
                if transparent and stack and parent[2] == layer:
                    parent[4] += own + frame[4]
                else:
                    st.self_s += own + frame[4]
                if span:
                    tracer._close_span(sid, t0, dt, frame[3])

        return wrapper

    def _observer(self, name):
        distinct, per_engine, _ = rec = self.args_seen[name]

        def observe(args):
            # engine methods get the engine first; the module-level function does not
            engine, key = (args[0], args[1:]) if args and not isinstance(args[0], int) else (None, args)
            distinct.add(key)
            tagged = (engine, key)
            if tagged in per_engine:
                rec[2] += 1
            else:
                per_engine.add(tagged)

        return observe

    def _open_span(self, name):
        sid = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else -1
        self.spans.append([name, 0.0, 0.0, parent, 0.0])
        self._span_stack.append(sid)
        return sid

    def _close_span(self, sid, t0, dt, child_s):
        span = self.spans[sid]
        span[1], span[2], span[4] = t0, t0 + dt, child_s
        self._span_stack.pop()

    @contextmanager
    def span(self, name):
        """A span and frame for a phase of the benchmark itself."""
        frame = [name, None, "bench", 0.0, 0.0]
        sid = self._open_span(name)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][3] += dt
            self._close_span(sid, t0, dt, frame[3])

    @contextmanager
    def paused(self):
        """Run library calls untraced (input generation and output checks)."""
        self._paused, self._in_gfq = True, True
        try:
            yield
        finally:
            self._paused, self._in_gfq = False, False

    # -- installation -----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "scodes" or name.startswith("scodes.")}
        replace = {}
        for layer in LAYERS:
            mod = mods["scodes." + layer]
            for fname, fn in _public_functions(mod, mod.__name__):
                qual = f"{layer}.{fname}"
                if layer == "gfq":
                    replace[id(fn)] = (fn, self._counted(fn))
                else:
                    name = RENAME.get(qual, qual)
                    span = (layer in SPAN_LAYERS or qual in SPAN_EXTRA) and qual not in NO_SPAN
                    replace[id(fn)] = (fn, self._timed(name, layer, fn, span))
            for cname in COUNTED_CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for mname, fn in _public_functions(cls, mod.__name__):
                    self._patch(cls, mname, fn, self._counted(fn))
            for cname in TIMED_CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                for mname, fn in _public_functions(cls, mod.__name__):
                    self._patch(cls, mname, fn, self._timed(f"{layer}.{mname}", layer, fn, False))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name) or Stat()

    def layer_self_s(self, layer) -> float:
        return sum(st.self_s for name, st in self.stats.items() if name.startswith(layer + "."))

    def span_wall_s(self, name) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "child_s"],
                       "spans": self.spans,
                       "counters": {name: [st.calls, st.incl_s, st.self_s]
                                    for name, st in sorted(self.stats.items())},
                       "gfq_calls": self.gfq_calls}, fh)
