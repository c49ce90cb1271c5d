"""In-memory span recorder for the traced benchmark run.

The traced run replaces public lamp functions and methods with thin
wrappers, only for its own process and only while it is tracing. A
``span`` hook records (name, start, end, parent, op) for every call; a
``count`` hook only counts calls per op, for functions called so often
that a span per call would swamp the run. Spans stay in memory and are
written out when the run ends.

Span names are ``<layer>.<function>``; the layer is the lamp module the
function lives in, or ``bench`` for the benchmark's own op root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute path, span name, mode). The lamp.cli and lamp.assoc
# entries are the names those modules imported from the layer below, so a
# call from one layer into the next goes through a wrapper. A hook whose
# target no longer exists is skipped and reads as zero calls.
HOOKS = [
    ("lamp.cli", "main", "cli.main", "span"),
    ("lamp.cli", "load_table", "assoc.load_table", "span"),
    ("lamp.cli", "query", "assoc.query", "span"),
    ("lamp.cli", "rank", "assoc.rank", "span"),
    ("lamp.cli", "diagnose", "assoc.diagnose", "span"),
    ("lamp.assoc", "load_table", "assoc.load_table", "span"),
    ("lamp.assoc", "query", "assoc.query", "span"),
    ("lamp.assoc", "rank", "assoc.rank", "span"),
    ("lamp.assoc", "diagnose", "assoc.diagnose", "span"),
    ("lamp.assoc", "quality_arith", "quality.quality_arith", "span"),
    ("lamp.assoc", "quality_index", "quality.quality_index", "span"),
    ("lamp.assoc", "criterion_vector", "quality.criterion_vector", "span"),
    ("lamp.assoc", "choose_best", "quality.choose_best", "span"),
    ("lamp.quality", "intersect", "ternary.intersect", "span"),
    ("lamp.quality", "card_x", "ternary.card_x", "span"),
    ("lamp.ternary", "TernaryVector.__init__", "ternary.TernaryVector.__init__", "span"),
    ("lamp.ternary", "TernaryVector.parse", "ternary.TernaryVector.parse", "span"),
    ("lamp.ternary", "TernaryVector.from_bitvector", "ternary.TernaryVector.from_bitvector", "span"),
    ("lamp.ternary", "TernaryVector.symbols", "ternary.TernaryVector.symbols", "span"),
    ("lamp.ternary", "TernaryVector.is_binary", "ternary.TernaryVector.is_binary", "span"),
    ("lamp.ternary", "TernaryVector.to_bitvector", "ternary.TernaryVector.to_bitvector", "span"),
    ("lamp.ternary", "IntersectionResult.is_empty", "ternary.IntersectionResult.is_empty", "span"),
    ("lamp.ternary", "IntersectionResult.empty_coords", "ternary.IntersectionResult.empty_coords", "span"),
    ("lamp.ternary", "IntersectionResult.to_ternary", "ternary.IntersectionResult.to_ternary", "span"),
    ("lamp.bitvec", "BitVector.__init__", "bitvec.BitVector.__init__", "count"),
    ("lamp.bitvec", "BitVector.parse", "bitvec.BitVector.parse", "span"),
    ("lamp.bitvec", "BitVector.from_bits", "bitvec.BitVector.from_bits", "span"),
    ("lamp.bitvec", "BitVector.bits", "bitvec.BitVector.bits", "span"),
    ("lamp.sim", "builtin_query_program", "sim.builtin_query_program", "span"),
    ("lamp.sim", "Grid.__init__", "sim.Grid.__init__", "span"),
    ("lamp.sim", "Grid.load_program", "sim.Grid.load_program", "span"),
    ("lamp.sim", "Grid.set_table", "sim.Grid.set_table", "span"),
    ("lamp.sim", "Grid.set_register", "sim.Grid.set_register", "span"),
    ("lamp.sim", "Grid.run", "sim.Grid.run", "span"),
    ("lamp.asm", "assemble", "asm.assemble", "span"),
    ("lamp.asm", "program_to_bytes", "asm.program_to_bytes", "span"),
    ("lamp.asm", "program_from_bytes", "asm.program_from_bytes", "span"),
]

_MARK = "_bench_hook"


def _target(module: str, path: str):
    """(owner, attribute, raw value) of a hook, or None if it is gone."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def installed(hooks=HOOKS) -> list[str]:
    """Hooks whose target is currently a benchmark wrapper."""
    found = []
    for module, path, _name, _mode in hooks:
        target = _target(module, path)
        if target is None:
            continue
        raw = target[2]
        fn = raw.fget if isinstance(raw, property) else getattr(raw, "__func__", raw)
        if getattr(fn, _MARK, False):
            found.append(f"{module}.{path}")
    return found


class Tracer:
    """Spans and call counts of one benchmark process."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op)
        self.counts: Counter = Counter()  # (op, name) -> calls of count hooks
        self.op = None  # id of the op being traced; "setup" or None otherwise
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _span_fn(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        setattr(traced, _MARK, True)
        return traced

    def _count_fn(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        return self._span_fn(fn, name)(*args, **kwargs)

    def install(self, hooks=HOOKS) -> None:
        for module, path, name, mode in hooks:
            target = _target(module, path)
            if target is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, raw = target
            make = self._span_fn if mode == "span" else self._count_fn
            if isinstance(raw, property):
                new = property(make(raw.fget, name))
            elif isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__, name))
            else:
                new = make(raw, name)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def per_op(spans, counts) -> dict:
    """Per op: self and inclusive ns by span name, span calls, hook counts.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of one op add up to its root span.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    ops = defaultdict(lambda: {
        "self": Counter(), "incl": Counter(), "calls": Counter(), "counts": Counter(),
    })
    for i, (name, start, end, _parent, op) in enumerate(spans):
        rec = ops[op]
        rec["self"][name] += end - start - child[i]
        rec["incl"][name] += end - start
        rec["calls"][name] += 1
    for (op, name), n in counts.items():
        ops[op]["counts"][name] += n
    return ops


def by_layer(counter: Counter) -> Counter:
    out = Counter()
    for name, value in counter.items():
        out[layer(name)] += value
    return out
