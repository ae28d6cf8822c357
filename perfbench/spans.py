"""Spans around the calls into each jumplines layer, recorded from outside.

`Tracer.install` replaces the public functions of each module with wrappers
that record one span per call (name, start, end, parent span, trace id).  A
function imported elsewhere with ``from ... import`` is rebound in every
jumplines module that holds it, so the wrapper sees every call.  Kernel calls
are counted at the backend module (`_fastkern` or `kernels.pure`), which is
where `gamma_scan` takes its `rank_mod_p` from; a kernel called from inside
another kernel (the pure twins call each other) is part of the outer call and
gets no span of its own.  Each thread keeps its own stack of open spans; a
span on a worker thread (`steiner.splitting_scan` with ``threads > 1``) has as
parent the span the main thread holds open while it waits for the workers.

Spans are kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import threading
from array import array
from pathlib import Path
from time import perf_counter_ns

# layer -> functions that get a span; each becomes the metric prefix "layer.function"
LAYERS = {
    "steiner": ("steiner_pencil", "splitting_scan"),
    "algebra": ("rref", "det"),
    "forms": ("curves_through", "monoidal_det", "gamma_minor_matrix", "jet_matrix", "sylvester_resultant"),
    "geom": ("plane_points", "validate_config"),
    "jumping": (
        "gamma_scan", "eval_form_on_points", "jumping_scan", "pencil4_eliminant", "lift_eliminant_roots",
        "ninth_point", "containment_monoidal", "base_locus_equality", "lien_equivalence",
        "pinceau_factorization",
    ),
    "verify": ("resolve_bundle",) + tuple(f"criterion_{i}" for i in range(1, 11)),
}
KERNELS = ("splitting_scan", "rank_mod_p", "eval_form_many")

# span name -> how to read its work size from the call's arguments
_EXTRA = {
    "kernels.splitting_scan": lambda args: len(args[5]) // 3,
    "kernels.eval_form_many": lambda args: len(args[2]) // 3,
    "jumping.gamma_scan": lambda args: hash(args[0]),  # identifies the configuration
}

# (name, unit) of every per-layer metric, as BENCHMARK.json lists them
METRICS = [
    (m["name"], m["unit"])
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.trace = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")
        self._lock = threading.Lock()  # a span's row is added to all arrays at once
        self._local = threading.local()  # each thread's open spans and kernel flag
        self._local.open = []
        self._local.in_kernel = False
        self._main_open = self._local.open
        self.trace_id = 0  # 0 is set-up; each operation gets its own id

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, kernel: bool = False):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        extra = _EXTRA.get(name)

        def traced(*args, **kwargs):
            local = self._local
            try:
                stack = local.open
            except AttributeError:  # first span of a worker thread
                stack = local.open = []
                local.in_kernel = False
            if kernel and local.in_kernel:
                return fn(*args, **kwargs)
            # a worker thread's outermost span belongs to the span that the
            # main thread has open while it waits for the worker
            main = self._main_open
            parent = stack[-1] if stack else (main[-1] if main else -1)
            size = extra(args) if extra else 0
            with self._lock:
                idx = len(self.start)
                self.name.append(nid)
                self.trace.append(self.trace_id)
                self.parent.append(parent)
                self.extra.append(size)
                self.start.append(0)
                self.end.append(0)
            stack.append(idx)
            local.in_kernel = kernel
            self.start[idx] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                stack.pop()
                if kernel:
                    local.in_kernel = False

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function of an imported jumplines."""
        import importlib

        from jumplines import kernels
        from jumplines.jumping import JumpingReport

        targets = [(kernels.impl_for(101), "kernels", k, True) for k in KERNELS]
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"jumplines.{layer}")
            targets += [(mod, layer, f, False) for f in fns]
        pkg = [m for n, m in list(sys.modules.items()) if n == "jumplines" or n.startswith("jumplines.")]
        for mod, layer, fn, kernel in targets:
            orig = getattr(mod, fn)
            traced = self.wrap(f"{layer}.{fn}", orig, kernel)
            setattr(mod, fn, traced)
            for other in pkg:
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, traced)
        for meth in ("to_json", "to_csv"):
            setattr(JumpingReport, meth, self.wrap("jumping.report_serialize", getattr(JumpingReport, meth)))

    # -- derivation ----------------------------------------------------------

    def metrics(self, rounds: list) -> dict:
        """Per-layer metrics of set-up plus one round of operations.

        ``rounds`` lists, per round, the trace ids of its operations.  Times
        are the median over rounds; counts come from the first round (every
        round runs the same operations).
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        dur = [end[i] - start[i] for i in range(n)]
        # time of each span covered by its children; children on worker
        # threads overlap, so the covered time is the union of their spans
        child = [0] * n
        reach: dict = {}  # span -> end of the time covered so far
        for i in sorted(range(n), key=start.__getitem__):
            q = parent[i]
            if q >= 0:
                lo = max(start[i], reach.get(q, 0))
                if end[i] > lo:
                    child[q] += end[i] - lo
                    reach[q] = end[i]
        round_of = {0: -1}
        for r, ids in enumerate(rounds):
            round_of.update((t, r) for t in ids)

        def totals(r):
            agg: dict = {}
            for i in range(n):
                if round_of.get(self.trace[i]) not in (r, -1):
                    continue
                a = agg.setdefault(self.names[self.name[i]], {"s": 0, "self_s": 0, "calls": 0, "points": 0, "configs": set()})
                a["s"] += dur[i]
                a["self_s"] += dur[i] - child[i]
                a["calls"] += 1
                a["points"] += self.extra[i]
                a["configs"].add(self.extra[i])
            return agg

        per_round = [totals(r) for r in range(len(rounds))]
        out = {}
        for metric, unit in METRICS:
            span, _, quantity = metric.rpartition(".")
            vals = []
            for agg in per_round:
                a = agg.get(span)
                if a is None:
                    vals.append(0)
                elif quantity in ("s", "self_s"):
                    vals.append(a[quantity] / 1e9)
                elif quantity == "per_config":
                    vals.append(a["calls"] / len(a["configs"]))
                else:
                    vals.append(a[quantity])
            value = statistics.median(vals) if unit == "s" else vals[0]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, header: dict) -> None:
        """JSON lines, gzipped: a header, then [trace, span, parent, name, start_ns, end_ns]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, names=self.names)) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.trace[i]},{i},{self.parent[i]},{self.name[i]},{self.start[i]},{self.end[i]}]\n")
