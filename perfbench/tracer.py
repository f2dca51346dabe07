"""Span tracing around calls into the public functions of triefringe.

The tracer wraps every public function of the traced modules, and the
character draw method of the source, and rebinds each wrapper under every
name the original is bound to (``cli.run`` as well as ``simulation.run``,
``simulation.build_patricia`` as well as ``trees.build_patricia``).  Each
call records one span: name, start, end and the span that caused it.
A span's self time is its duration minus the time its child spans cover.

Spans are kept in flat integer arrays while tracing and summarised or
written out afterwards.  Spans inside pool worker processes are not seen,
so traced ops must run with one thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import time
from array import array

# Which layer each traced name belongs to; names not listed take the layer
# of their module (``asymptotics``, ``cli``).
LAYER_OF = {
    "source.SourceDistribution.draw_chars": "source.draw",
    "simulation.replicate_rng": "simulation.seed",
    **{
        f"simulation.{name}": "simulation.engine"
        for name in (
            "run",
            "fringe_distribution",
            "estimate_fX",
            "sample_patricia_roots",
            "estimate_root_essential",
            "oscillation_scan",
            "slln_track",
            "normality_diagnostics",
        )
    },
    **{
        f"trees.{name}": "trees.build"
        for name in ("build_trie", "build_patricia", "compress", "fringe", "key_from_string", "random_key_set")
    },
    **{
        f"trees.{name}": "trees.exact"
        for name in ("enumerate_patricia_shapes", "shape_probability", "shape_signature", "shape_string")
    },
    **{
        f"functionals.{name}": "functionals.evaluate"
        for name in (
            "evaluate_additive",
            "evaluate_summed",
            "independence_number",
            "matching_number",
            "brute_force_independence",
        )
    },
}

TRACED_MODULES = ("source", "trees", "functionals", "asymptotics", "simulation", "cli")
OP_SPAN = "op"


def layer_of(name: str) -> str:
    if name == OP_SPAN:
        return "bench"
    if name in LAYER_OF:
        return LAYER_OF[name]
    module = name.split(".", 1)[0]
    return "functionals.toll" if module == "functionals" else module


def _chars_in(shape) -> int:
    return shape if isinstance(shape, int) else math.prod(shape)


class Tracer:
    """Records spans of wrapped calls; install() binds the wrappers."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name_id = {OP_SPAN: 0}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")  # nanoseconds covered by direct children
        self.kids = array("q")  # number of direct children
        self.work = array("q")  # characters drawn, for the draw span
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int, work: int = 0) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.child.append(0)
        self.kids.append(0)
        self.work.append(work)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        stop = time.perf_counter_ns()
        self.end[idx] = stop
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += stop - self.start[idx]
            self.kids[parent] += 1

    def op_span(self, index: int, fn, *args):
        """Run fn(*args) as op `index`, inside a root span."""
        self._op = index
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = -1

    def _name(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn, counts_chars: bool = False):
        name_id = self._name(name)

        if counts_chars:

            @functools.wraps(fn)
            def traced(dist, rng, shape):
                idx = self._open(name_id, _chars_in(shape))
                try:
                    return fn(dist, rng, shape)
                finally:
                    self._close(idx)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

        return traced

    # -- installing the wrappers ----------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of the traced modules of `package`."""
        modules = {short: getattr(package, short) for short in TRACED_MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        cls = modules["source"].SourceDistribution
        original = cls.draw_chars
        self._undo.append((cls, "draw_chars", original))
        cls.draw_chars = self._wrap("source.SourceDistribution.draw_chars", original, counts_chars=True)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- summaries -------------------------------------------------------------

    def spans(self) -> int:
        return len(self.name)

    def per_op(self, per_span: float = 0.0) -> dict:
        """{op: {"self_s": {layer: s}, "calls": {layer: n}, "wall_s": s, "chars": n}}.

        Recording a child span costs its parent `per_span` seconds outside
        the child's interval; that cost is taken off the parent's self time.
        """
        out: dict[int, dict] = {}
        for i in range(len(self.name)):
            op = self.op[i]
            name = self.names[self.name[i]]
            layer = layer_of(name)
            rec = out.setdefault(op, {"self_s": {}, "calls": {}, "wall_s": 0.0, "chars": 0})
            self_s = (self.end[i] - self.start[i] - self.child[i]) * 1e-9 - self.kids[i] * per_span
            rec["self_s"][layer] = rec["self_s"].get(layer, 0.0) + self_s
            rec["calls"][layer] = rec["calls"].get(layer, 0) + 1
            rec["chars"] += self.work[i]
            if name == OP_SPAN:
                rec["wall_s"] += (self.end[i] - self.start[i]) * 1e-9
        return out

    def write(self, path) -> None:
        """All spans as tab-separated text: id, parent, op, name, start_ns, end_ns, chars."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tchars\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.work[i]}\n"
                )


def calibrate(calls: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a wrapped no-op."""
    noop = Tracer()._wrap("noop", lambda: None)
    bare = lambda: None  # noqa: E731
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
