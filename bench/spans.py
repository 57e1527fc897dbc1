"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces every public (non-underscore) function defined
in the traced modules with a wrapper, at every place the package binds it:
``coabelian.analyzer.rank`` is the same function as
``coabelian.intmatrix.rank``, so both names get the wrapper and calls made
inside the package pass through it. ``uninstall`` puts the originals back.

A span is (name, start, end, parent span, op id). Spans are kept in memory
as parallel arrays and written out by ``write``. Self time is a span's
duration minus the time its child spans cover; spans are properly nested
because the benchmark runs one thread.

A few wrapped functions also feed counters (distinct rank arguments, the
largest bit-length of a normal form's entries, vectors generated). The work
those hooks do is excluded from every span's time.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter_ns

OP_SPAN = "bench.op"


def _max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m.data for x in row),
               default=0)


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)  # every module that may bind a traced name
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._paused = 0  # ns spent in hooks, removed from every timestamp
        self.op_id = -1
        self._saved: list[tuple[object, str, object]] = []
        # counters fed by hooks
        self.rank_distinct = 0
        self._rank_seen: set = set()
        self._rank_seen_op = -1
        self.peak_bits = 0
        self.p_prime_vectors = 0

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def run_op(self, op_id: int, fn, *args):
        """Call fn as operation ``op_id``, inside a root span."""
        self.op_id = op_id
        return self._wrap(OP_SPAN, fn)(*args)

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        start, end, names, parent, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(0)
            end.append(0)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(self.op_id)
            stack.append(idx)
            t0 = perf_counter_ns() - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns() - self._paused
                start[idx] = t0
                stack.pop()
            if hook is not None:
                h0 = perf_counter_ns()
                hook(args, result)
                self._paused += perf_counter_ns() - h0
            return result
        return wrapper

    def _rank_hook(self, args, result):
        if self._rank_seen_op != self.op_id:
            self._rank_seen = set()
            self._rank_seen_op = self.op_id
        key = args[0].data
        if key not in self._rank_seen:
            self._rank_seen.add(key)
            self.rank_distinct += 1

    def _hnf_hook(self, args, result):
        self.peak_bits = max(self.peak_bits, _max_bits(*result))

    def _snf_hook(self, args, result):
        self.peak_bits = max(self.peak_bits, _max_bits(result.left, result.right),
                             max((abs(d).bit_length() for d in result.diag), default=0))

    def _p_prime_hook(self, args, result):
        self.p_prime_vectors += len(result.vectors)

    # -- install / uninstall -------------------------------------------------

    def install(self, traced) -> None:
        """Wrap the public functions defined in each of ``traced`` (a list of
        modules), everywhere one of ``self.modules`` binds them."""
        hooks = {"intmatrix.rank": self._rank_hook,
                 "intmatrix.hermite_normal_form": self._hnf_hook,
                 "intmatrix.smith_normal_form": self._snf_hook,
                 "forge.generate_P_prime": self._p_prime_hook}
        wrappers = {}
        for mod in traced:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    original, wrapper = wrappers[id(obj)]
                    if obj is original:
                        self._saved.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans: one JSON header line, then the five columns as
        raw native-endian arrays (int64 start, int64 end, int32 name,
        int32 parent, int32 op), in that order."""
        header = {"names": self.names, "count": len(self.start),
                  "columns": ["start_ns:q", "end_ns:q", "name:i", "parent:i", "op:i"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.start, self.end, self.name, self.parent, self.op):
                col.tofile(fh)

    def summarize(self, groups: dict[str, tuple[str, ...]]) -> "SpanSummary":
        """Per-name counts and self times, plus, for each group of span
        names (a member ending in "." stands for every name with that
        prefix), the time of its outermost spans (a group span inside another
        span of the same group is not counted twice) and the count of spans
        by name beneath each group."""
        names = self.names
        n = len(self.start)
        group_bits = [0] * len(names)
        for gi, members in enumerate(groups.values()):
            for nid, nm in enumerate(names):
                if any(nm == m or (m.endswith(".") and nm.startswith(m)) for m in members):
                    group_bits[nid] |= 1 << gi
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        anc = [0] * n  # bitmask of groups with a span among the ancestors
        calls = [0] * len(names)
        self_ns = [0] * len(names)
        outer_ns = [0] * len(groups)
        under: dict[tuple[int, int], int] = {}
        name_col, parent_col = self.name, self.parent
        for i in range(n):
            p = parent_col[i]
            if p >= 0:
                child[p] += dur[i]
                anc[i] = anc[p] | group_bits[name_col[p]]
        for i in range(n):
            nid = name_col[i]
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
            bits = group_bits[nid]
            a = anc[i]
            if bits:
                for gi in range(len(outer_ns)):
                    if bits >> gi & 1 and not a >> gi & 1:
                        outer_ns[gi] += dur[i]
            if a:
                for gi in range(len(outer_ns)):
                    if a >> gi & 1:
                        under[(gi, nid)] = under.get((gi, nid), 0) + 1
        gnames = list(groups)
        return SpanSummary(
            calls={nm: calls[i] for i, nm in enumerate(names)},
            self_s={nm: self_ns[i] / 1e9 for i, nm in enumerate(names)},
            group_s={g: outer_ns[gi] / 1e9 for gi, g in enumerate(gnames)},
            under={(gnames[gi], names[nid]): c for (gi, nid), c in under.items()})


class SpanSummary:
    def __init__(self, calls, self_s, group_s, under):
        self._calls, self._self_s, self._group_s, self._under = calls, self_s, group_s, under

    def calls(self, *names: str) -> int:
        """Spans with one of these names; a name that is gone counts 0."""
        return sum(self._calls.get(nm, 0) for nm in names)

    def self_s(self, *names: str, layer: str | None = None) -> float:
        if layer is not None:
            names = tuple(nm for nm in self._self_s if nm.split(".", 1)[0] == layer)
        return sum(self._self_s.get(nm, 0.0) for nm in names)

    def layer_calls(self, layer: str) -> int:
        return sum(c for nm, c in self._calls.items() if nm.split(".", 1)[0] == layer)

    def group_s(self, group: str) -> float:
        return self._group_s.get(group, 0.0)

    def under(self, group: str, name: str) -> int:
        return self._under.get((group, name), 0)
