"""Span tracing around dpcalc's public functions, installed from outside.

Nothing in dpcalc is edited.  `Tracer.install()` replaces each traced
function where its caller looks it up (a module attribute, or a method on
its class) with a wrapper, and puts the originals back on exit.  Wrappers
record only while a request is open, so the benchmark's own answer checks,
which also parse and evaluate ring values, never reach the numbers.

Each call becomes a frame on a stack.  When a frame closes its duration is
added to its parent's child time, so self time = duration - child time
holds for every layer.  Busy time counts only the outermost call of a name,
so recursion through a wrapped function is not counted twice.

Coarse layers (requests, cli.main, oracle.integrate, motivic, presburger,
point counts, parsing) keep one span per call: name, start, end, parent
span and request id.  Fine layers are called ~10^5 times per pass
(interpret, eval_vf_term, LFElem arithmetic, digit and rational
embeddings, SymA construction, nu, render); keeping one span per call
would cost tens of MB, so their calls are folded into one aggregate per
(request, parent span, name) with calls, busy, self, first start and last
end.  Everything is kept in memory and written once by `write()`.

Left untraced on purpose: `realroots` (only `SymA.is_nonneg` reaches it),
and `oracle.serre_oesterle_count` and `oracle.jacobian_check`, which only
the tests call.  No workload reaches them, so no gain can be claimed there.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

from dpcalc.formula import (Exists, Formula, Sort, Truth3, free_vars, parse,
                            walk)
from dpcalc.localfield import FieldKind

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.request = None
        self._stack = []
        self._open = {}
        # name -> [calls, busy_s, self_s]
        self.layers = {}
        self.counts = {}
        self.spans = []
        self.aggregates = {}
        self._evals_cache = {}

    # -- frames --

    def _enter(self, name, keep_span):
        parent = self._nearest_span()
        index = None
        if keep_span:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, _clock(), 0.0, index, parent]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _exit(self, frame):
        end = _clock()
        name, start, child, index, parent = frame
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += duration
        depth = self._open[name] = self._open[name] - 1
        stat = self.layers.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        if depth == 0:
            stat[1] += duration
        stat[2] += duration - child
        if index is not None:
            self.spans[index] = (name, start, end, parent, self.request)
        else:
            key = (self.request, parent, name)
            agg = self.aggregates.get(key)
            if agg is None:
                self.aggregates[key] = [1, duration, duration - child,
                                        start, end]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - child
                agg[4] = end
        return duration

    def _nearest_span(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def request_span(self, request_id):
        """Open the root span of one request; wrappers record inside it."""
        self.request = request_id
        frame = self._enter("request", True)
        try:
            yield
        finally:
            self._exit(frame)
            self.request = None

    def _wrap(self, fn, name, keep_span, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
            if after is not None:
                # bookkeeping time is moved out of the caller's self time
                t0 = _clock()
                after(tracer, args, kwargs, result, duration)
                if tracer._stack:
                    tracer._stack[-1][2] += _clock() - t0
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation --

    @contextmanager
    def install(self):
        """Patch every traced function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, keep_span, after in _targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr,
                        self._wrap(fn, name, keep_span, after))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- derived numbers --

    def busy(self, name):
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name):
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def self_time(self, prefix):
        """Self time summed over every layer named `prefix` or
        `prefix.<anything>`."""
        return sum(s[2] for n, s in self.layers.items()
                   if n == prefix or n.startswith(prefix + "."))

    def nominal_evals(self, phi, q):
        """q^(free + quantified variables) of a point count: the number of
        assignments exhaustive enumeration visits at most."""
        if not isinstance(phi, str):
            return q ** _count_depth(phi)
        depth = self._evals_cache.get(phi)
        if depth is None:
            depth = _count_depth(parse(phi, default_sort=Sort.RF))
            self._evals_cache[phi] = depth
        return q ** depth

    def write(self, path, header):
        """Write every span and aggregate as JSON to `path`."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = dict(header)
        payload["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.spans]
        payload["aggregates"] = [
            {"name": name, "request": req, "parent": parent, "calls": a[0],
             "busy_s": a[1], "self_s": a[2], "first_start": a[3],
             "last_end": a[4]}
            for (req, parent, name), a in self.aggregates.items()]
        payload["layers"] = {
            n: {"calls": s[0], "busy_s": s[1], "self_s": s[2]}
            for n, s in sorted(self.layers.items())}
        payload["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# what is traced, and where


def _count_depth(phi):
    expr = phi.expr if isinstance(phi, Formula) else phi
    free = phi.free if isinstance(phi, Formula) else free_vars(expr)
    return len(free) + sum(1 for n in walk(expr) if isinstance(n, Exists))


def _after_oracle(tracer, args, kwargs, result, duration):
    kind = "qp" if args[2].kind is FieldKind.CHAR_ZERO else "fpt"
    stat = tracer.layers.setdefault("oracle." + kind, [0, 0.0, 0.0])
    stat[0] += 1
    stat[1] += duration
    tracer.count("oracle.boxes_nominal", result.boxes_total)


def _after_interpret(tracer, args, kwargs, result, duration):
    tracer.count("oracle.nodes")
    if result is not Truth3.UNDECIDED:
        tracer.count("oracle.settled")


def _after_count(tracer, args, kwargs, result, duration):
    tracer.count("formula.count_rf_points.evals",
                 tracer.nominal_evals(args[0], int(args[1])))


def _targets():
    """(owner, attribute, layer, keep one span per call, hook) for every
    traced function.  A function imported by name is patched in the module
    that calls it, because that module holds its own reference."""
    cli = importlib.import_module("dpcalc.cli")
    motivic = importlib.import_module("dpcalc.motivic")
    oracle = importlib.import_module("dpcalc.oracle")
    count = importlib.import_module("dpcalc.formula.count")
    interp = importlib.import_module("dpcalc.formula.interpret")
    localfield = importlib.import_module("dpcalc.localfield")
    symring = importlib.import_module("dpcalc.symring")
    out = [
        (cli, "main", "cli.main", True, None),
        (cli, "oracle_integrate", "oracle.integrate", True, _after_oracle),
        (cli, "load_cells", "motivic.load_cells", True, None),
        (cli, "integrate_cell_data", "motivic.integrate_cell_data", True,
         None),
        (cli, "integrate_linear_product", "motivic.integrate_linear_product",
         True, None),
        (cli, "bind_parameters", "motivic.bind_parameters", True, None),
        (cli, "residue_cases", "motivic.residue_cases", True, None),
        (cli, "specialize", "motivic.specialize", True, None),
        (motivic, "integrate_cells", "motivic.integrate_cells", True, None),
        (motivic, "appendix2_volume", "motivic.appendix2_volume", True,
         None),
        (motivic, "pres_sum", "presburger.sum", True, None),
        (motivic, "count_rf_points", "formula.count_rf_points", True,
         _after_count),
        (oracle, "interpret", "formula.interpret", False, _after_interpret),
        (oracle, "eval_vf_term", "formula.eval_vf_term", False, None),
        (cli, "eval_vf_term", "formula.eval_vf_term", False, None),
        (oracle, "from_digits", "localfield.from_digits", False, None),
        (interp, "from_digits", "localfield.from_digits", False, None),
        (interp, "embed_rational", "localfield.embed_rational", False, None),
        (localfield, "embed_rational", "localfield.embed_rational", False,
         None),
        (symring.SymA, "__init__", "symring.canon", False, None),
        (symring.SymA, "nu", "symring.nu", False, None),
        (symring.SymA, "render", "symring.render", False, None),
    ]
    for module in (cli, motivic, oracle, count):
        out.append((module, "parse", "formula.parse", True, None))
    for op in ("__add__", "__sub__", "__mul__", "__neg__"):
        out.append((localfield.LFElem, op, "localfield.arith", False, None))
    return out
