"""Tests of the benchmark itself: its checks are live, its tracer restores
what it patches, and its work counts repeat exactly on a fixed input.

    python3 -m pytest perfbench -q
"""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import dpcalc.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dpcalc.symring import SymA  # noqa: E402
from spans import Tracer  # noqa: E402


class _Fixed:
    """A workload whose every pass is the given requests."""

    def __init__(self, base, requests):
        self.base = base
        self.requests = requests

    def next_pass(self):
        return list(self.requests)

    def call(self, request):
        return self.base.call(request)

    def check(self, request, answer):
        return self.base.check(request, answer)


def _fail_frac(workload):
    phase = run.measure(workload, 0)
    return len(phase.failures) / len(phase.latencies)


def test_ring_reader_agrees_with_the_ring():
    for text in ("(1 - L^-1)/(1 - L^-4)", "1/2*L^3 - 1/2*L",
                 "(1 - 2*L^-1 + L^-4 + L^-6 - L^-8)/((1 - L^-3)*(1 - L^-5))",
                 "(L^-8 - 4*L^-9 + 2*L^-10 + L^-11)/(1 - L^-2)^2", "L^-2"):
        got = workloads.ring_values(text, workloads.PRIMES_TO_31)
        assert got == {p: SymA.parse(text).nu(p)
                       for p in workloads.PRIMES_TO_31}, text


def test_first_requests_of_every_workload_pass():
    for cls in workloads.WORKLOADS.values():
        w = cls(7)
        assert _fail_frac(_Fixed(w, w.next_pass()[:3])) == 0, cls.name


def test_corrupted_fixture_is_a_failure():
    w = _Fixed(workloads.TransferCorpus(1),
               [("corrupted_expect.dp", 5), ("ball.dp", 5)])
    assert _fail_frac(w) == 0.5


def test_perturbed_closed_form_is_a_failure(monkeypatch):
    w = workloads.SymbolicFamilies(3)
    products = [r for r in w.next_pass() if r[0] == "product"][:2]
    fixed = _Fixed(w, products)
    assert _fail_frac(fixed) == 0
    exact = workloads.linear_product_value
    monkeypatch.setattr(
        workloads, "linear_product_value",
        lambda *args: exact(*args) + Fraction(1, 10 ** 12))
    assert _fail_frac(fixed) == 1


def test_skipped_row_is_a_failure(monkeypatch):
    w = _Fixed(workloads.TransferCorpus(1), [("linear_triple.dp", 5)])
    monkeypatch.setattr(workloads, "expected_rows", lambda name, p: (0, 1))
    assert _fail_frac(w) == 1


def test_products_outlast_a_long_run():
    # 300 passes are 13200 requests, about five times what the fastest run
    # at the defining commit sends in 30 s
    w = workloads.SymbolicFamilies(5)
    for _ in range(300):
        w.next_pass()
    assert len(w.seen) == 300 * 36


def test_tracer_restores_what_it_patches():
    original = dpcalc.cli.main
    with Tracer().install():
        assert dpcalc.cli.main is not original
    assert dpcalc.cli.main is original


def _trace_linear_m3_at_5():
    tracer = Tracer()
    with tracer.install(), tracer.request_span(0):
        rc, _, _ = workloads.run_cli(
            ["compare", workloads.fixture("linear_m3.dp"), "--primes", "5",
             "--both-characteristics"])
    assert rc == 0
    return tracer


def test_counts_repeat_exactly_on_a_fixed_input():
    first, second = _trace_linear_m3_at_5(), _trace_linear_m3_at_5()
    for layer in ("symring.canon", "localfield.arith", "oracle.integrate",
                  "formula.interpret"):
        assert first.calls(layer) == second.calls(layer) > 0, layer
    assert first.counts == second.counts
    assert first.counts["oracle.nodes"] > 0


def test_spans_nest_inside_their_request():
    tracer = _trace_linear_m3_at_5()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "request" and "cli.main" in names
    request = tracer.spans[0]
    for name, start, end, parent, req in tracer.spans[1:]:
        assert req == 0 and parent is not None
        assert request[1] <= start <= end <= request[2]
    # self time never exceeds the wall time of the request
    total_self = sum(s[2] for n, s in tracer.layers.items()
                     if n not in ("oracle.qp", "oracle.fpt"))
    assert 0 < total_self <= tracer.busy("request")


class _Stuck:
    """A workload whose one request never answers."""

    def next_pass(self):
        return ["stuck"]

    def call(self, request):
        while True:
            pass

    def check(self, request, answer):
        return None


def test_a_stuck_request_is_stopped_and_failed(monkeypatch):
    monkeypatch.setattr(run, "REQUEST_LIMIT_S", 0.2)
    phase = run.measure(_Stuck(), 0)
    assert len(phase.failures) == 1
    assert "no answer within" in phase.failures[0][1]


class _StuckPass(_Stuck):
    """A workload that never makes its pass."""

    def next_pass(self):
        while True:
            pass


def test_a_stuck_generator_ends_the_run(monkeypatch):
    monkeypatch.setattr(run, "REQUEST_LIMIT_S", 0.2)
    with pytest.raises(run.RequestTimeout):
        run.measure(_StuckPass(), 0)
