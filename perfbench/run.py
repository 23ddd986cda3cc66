"""dpcalc benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is transfer_corpus, symbolic_families, residue_counts, or `all` to
run the three in turn.  Run it from the root of a checkout: it imports
dpcalc from ./src and reads ./fixtures, and exits 2 without a result when
they are missing.

--trace 0 measures the end-to-end metrics with tracing off: closed-loop
throughput, the median and 90th-percentile request latency, peak RSS, and
set-up time (the median of several fresh processes, each timing its own
import of dpcalc and building of the inputs).  --trace 1 sends one warm-up
pass, then untraced and traced passes in turn; it reports per-layer calls,
busy and self time per pass together with the tracing overhead, and writes
every span to .perfbench-out/.  `all` runs each workload in a process of
its own.

Every time is divided by the host's slowdown: the time of a fixed
pure-Python loop of Fraction arithmetic over its nominal time.  The loop is timed between
requests every quarter second, and each request's latency is divided by
the slowdown timed just before it; set-up time by the slowdown its own
process timed after set-up; per-layer times by the phase's median
slowdown.  On a shared 2-vCPU VM, raw times of one workload drifted by up
to 1.6x from run to run while the scaled ones stayed within a few
percent; the raw figures are printed alongside.

Every answer is checked after its pass, untimed; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
NAMES = ("transfer_corpus", "symbolic_families", "residue_counts")
SETUP_PROCESSES = 7
SETUP_REFERENCE_LOOPS = 5
# the reference loop's time on a host at nominal speed; time metrics are
# scaled to it (see reference_loop_s)
REFERENCE_NOMINAL_S = 0.010
REFERENCE_EVERY_S = 0.25
# no request takes a second at the defining commit; one that takes this
# long is stopped and counted as failed, so a run always ends
REQUEST_LIMIT_S = 15

_clock = time.perf_counter


class Phase:
    """What one timed loop sent: latencies, failures, and the host's speed
    while it ran."""

    def __init__(self):
        self.latencies = []
        # each latency divided by the slowdown of the reference loop timed
        # just before it
        self.scaled = []
        self.failures = []
        self.passes = 0
        self.reference = []
        self.last_reference = None

    def busy_s(self):
        return sum(self.latencies)

    def slowdown(self):
        """How much slower than nominal the host ran the reference loop,
        over the whole phase."""
        return statistics.median(self.reference) / REFERENCE_NOMINAL_S

    def items_per_s(self):
        """Requests per second of the one client, at nominal host speed."""
        return len(self.scaled) / sum(self.scaled)


def reference_loop_s():
    """Time of a fixed pure-Python loop.  A shared host can change speed by
    tens of percent for minutes at a time; the loop slows with it, so times
    divided by its slowdown repeat across runs far better than raw times.

    The loop adds Fractions into a dict, the kind of work dpcalc does.  On
    a shared 2-vCPU VM it tracked the workloads' speed better than a loop
    of small-integer arithmetic, whose scaled throughput over 5-10 s spans
    varied up to twice as much on symbolic_families."""
    t0 = _clock()
    sums = {}
    for a in range(60):
        for b in range(40):
            k = (a + b) % 53
            sums[k] = sums.get(k, 0) + Fraction(a - b, b + 1)
    return _clock() - t0


def measure(workload, seconds):
    """Send whole passes of requests until `seconds` have been spent in
    them."""
    phase = Phase()
    while phase.passes == 0 or phase.busy_s() < seconds:
        run_pass(workload, phase)
    return phase


def run_pass(workload, phase, tracer=None):
    """Send one pass of requests into `phase`, timing the reference loop
    between requests every quarter second.

    The pass is made, and every request answered, under a watchdog, so a
    run always ends.  The answers are checked after the pass, outside the
    timed region, and dropped, so memory does not grow with the run."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        # a generator that cannot make its pass ends the run with an error
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        try:
            batch = workload.next_pass()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        answers = []
        for request in batch:
            if phase.last_reference is None or \
                    _clock() - phase.last_reference >= REFERENCE_EVERY_S:
                phase.reference.append(reference_loop_s())
                phase.last_reference = _clock()
            t0 = _clock()
            signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
            try:
                if tracer is None:
                    answer = workload.call(request)
                else:
                    with tracer.request_span(len(phase.latencies)):
                        answer = workload.call(request)
            except Exception:
                answer = _Raised(traceback.format_exc())
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            latency = _clock() - t0
            phase.latencies.append(latency)
            phase.scaled.append(
                latency * REFERENCE_NOMINAL_S / phase.reference[-1])
            answers.append((request, answer))
    finally:
        signal.signal(signal.SIGALRM, previous)
    phase.passes += 1
    phase.failures += check(workload, answers)


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout("no answer within %g s" % REQUEST_LIMIT_S)


class _Raised:
    """A request that raised instead of answering."""

    def __init__(self, text):
        self.text = text


def check(workload, answers):
    """(request, reason) for every answer that is wrong."""
    failures = []
    for request, answer in answers:
        if isinstance(answer, _Raised):
            reason = answer.text.strip().splitlines()[-1]
        else:
            try:
                reason = workload.check(request, answer)
            except Exception:
                reason = "check raised: %s" % \
                    traceback.format_exc().strip().splitlines()[-1]
        if reason is not None:
            failures.append((request, reason))
    return failures


def setup_seconds(name, seed):
    """Median set-up time of fresh processes, each scaled by the host
    slowdown that process measured right after its set-up, and the median
    raw time."""
    raw, scaled = [], []
    for _ in range(SETUP_PROCESSES):
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(seed),
                               "--setup-only"],
                              cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True, timeout=120)
        got = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(got["setup_s"])
        scaled.append(got["setup_s"] / got["slowdown"])
    return statistics.median(scaled), statistics.median(raw)


def setup_only(name, seed):
    """Import dpcalc and build the inputs, timed from before the import;
    then time the reference loop in the same process."""
    t0 = _clock()
    from workloads import WORKLOADS
    WORKLOADS[name](seed)
    elapsed = _clock() - t0
    reference = [reference_loop_s() for _ in range(SETUP_REFERENCE_LOOPS)]
    print(json.dumps({"setup_s": elapsed, "slowdown": statistics.median(
        reference) / REFERENCE_NOMINAL_S}))


def metric(value, unit):
    return {"value": value, "unit": unit}


def _latency_metrics(lat):
    return {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (1000 * statistics.median(lat), "ms"),
        "item_p90_ms": (
            1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "ms"),
    }


def end_to_end(name, seed, seconds):
    from workloads import WORKLOADS
    setup, setup_raw = setup_seconds(name, seed)
    workload = WORKLOADS[name](seed)
    phase = measure(workload, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = phase.latencies
    slow = phase.slowdown()
    metrics = {k: metric(v, u) for k, (v, u) in
               _latency_metrics(phase.scaled).items()}
    raw = _latency_metrics(lat)
    metrics["setup_s"] = metric(setup, "s")
    raw["setup_s"] = (setup_raw, "s")
    metrics["peak_rss_mb"] = metric(rss_mb, "MB")
    samples = {"items_per_s": len(lat), "item_p50_ms": len(lat),
               "item_p90_ms": len(lat), "setup_s": SETUP_PROCESSES,
               "peak_rss_mb": 1}
    print("%s seed %d: %d requests in %d passes, %.2f s busy; host slowdown "
          "%.4f (median of %d reference loops)" % (
              name, seed, len(lat), phase.passes, phase.busy_s(), slow,
              len(phase.reference)))
    if len(lat) < 100:
        print("  warning: fewer than 100 samples; p90 has fewer than 10 "
              "samples beyond it")
    for key, m in metrics.items():
        print("  %-14s %14.4f %-4s (n=%d)  raw %.4f" % (
            key, m["value"], m["unit"], samples[key],
            raw.get(key, (m["value"],))[0]))
    print("  %-14s %14.4f %-4s (n=%d)" % ("fail_frac",
                                         len(phase.failures) / len(lat), "1",
                                         len(lat)))
    return metrics, len(lat), phase.failures


# layers whose calls, busy time, or share of request time are reported
CALLS = ("oracle.integrate", "formula.interpret", "formula.eval_vf_term",
         "localfield.arith", "localfield.from_digits",
         "localfield.embed_rational", "symring.canon", "symring.nu",
         "presburger.sum", "formula.count_rf_points")
BUSY = ("oracle.integrate", "oracle.qp", "oracle.fpt", "formula.interpret",
        "formula.eval_vf_term", "localfield.arith", "symring.canon",
        "symring.nu", "symring.render", "presburger.sum",
        "motivic.integrate_cells", "motivic.residue_cases",
        "motivic.specialize", "formula.count_rf_points", "formula.parse",
        "cli.main")
SHARE = ("oracle.integrate", "symring.canon", "formula.count_rf_points")
# self time summed over every layer under these prefixes
SELF = ("oracle", "motivic", "cli")
COUNTS = ("oracle.nodes", "oracle.boxes_nominal",
          "formula.count_rf_points.evals")


def _layer_metrics(t, passes, untraced, traced):
    """Per-layer metrics of a traced phase: totals per pass, and times
    divided by the host slowdown as the end-to-end times are."""
    per_s = 1.0 / (passes * traced.slowdown())
    nodes = t.counts.get("oracle.nodes", 0)
    boxes = t.counts.get("oracle.boxes_nominal", 0)
    requests = t.busy("request")
    out = {
        "trace.untraced_items_per_s": metric(untraced.items_per_s(), "1/s"),
        "trace.traced_items_per_s": metric(traced.items_per_s(), "1/s"),
        "trace.overhead": metric(
            untraced.items_per_s() / traced.items_per_s(), "x"),
        "requests.busy_s": metric(requests * per_s, "s/pass"),
        "oracle.nodes_per_box": metric(nodes / boxes if boxes else 0.0, "1"),
        "oracle.settled_frac": metric(
            t.counts.get("oracle.settled", 0) / nodes if nodes else 0.0, "1"),
    }
    for name in COUNTS:
        out[name] = metric(t.counts.get(name, 0) / passes, "count/pass")
    for layer in CALLS:
        out[layer + ".calls"] = metric(t.calls(layer) / passes, "count/pass")
    for layer in BUSY:
        out[layer + ".busy_s"] = metric(t.busy(layer) * per_s, "s/pass")
    for layer in SHARE:
        out[layer + ".share"] = metric(t.busy(layer) / requests, "1")
    for prefix in SELF:
        out[prefix + ".self_s"] = metric(t.self_time(prefix) * per_s,
                                         "s/pass")
    return out


def per_layer(name, seed, seconds):
    """One untimed warm-up pass, then untraced and traced passes in turn
    until `seconds` have been spent in them, so both halves see the same
    cache state and the same host."""
    from spans import Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed)
    warm, untraced, traced = Phase(), Phase(), Phase()
    run_pass(workload, warm)
    tracer = Tracer()
    while traced.passes == 0 or \
            untraced.busy_s() + traced.busy_s() < seconds:
        run_pass(workload, untraced)
        with tracer.install():
            run_pass(workload, traced, tracer)
    failures = warm.failures + untraced.failures + traced.failures
    path = os.path.join(OUT_DIR, "spans-%s.json" % name)
    tracer.write(path, {"workload": name, "seed": seed,
                        "passes": traced.passes,
                        "requests": len(traced.latencies)})
    metrics = _layer_metrics(tracer, traced.passes, untraced, traced)
    print("%s seed %d: %d untraced and %d traced requests (%d traced "
          "passes); spans in %s" % (name, seed, len(untraced.latencies),
                                    len(traced.latencies), traced.passes,
                                    os.path.relpath(path, ROOT)))
    print("  %-32s %12s %12s %12s" % ("layer (per pass, raw)", "calls",
                                      "busy_s", "self_s"))
    for layer, (calls, busy, self_s) in sorted(tracer.layers.items()):
        print("  %-32s %12.1f %12.6f %12.6f" % (
            layer, calls / traced.passes, busy / traced.passes,
            self_s / traced.passes))
    for key, m in metrics.items():
        print("  %-34s %16.6f %s" % (key, m["value"], m["unit"]))
    attempted = len(warm.latencies) + len(untraced.latencies) + \
        len(traced.latencies)
    return metrics, attempted, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import dpcalc, build the inputs, and exit "
                         "(timed by the parent to measure set-up)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dpcalc", "cli.py")) or \
            not os.path.isdir(os.path.join(ROOT, "fixtures")):
        sys.stderr.write("perfbench: %s has no src/dpcalc or fixtures; run "
                         "from the root of a dpcalc checkout\n" % ROOT)
        return 2
    # dpcalc is importable only from here on
    sys.path.insert(0, SRC)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    run = per_layer if args.trace else end_to_end
    metrics, attempted, failures = run(args.workload, args.seed,
                                       args.seconds)
    for request, reason in failures[:5]:
        sys.stderr.write("perfbench: %s %r failed: %s\n"
                         % (args.workload, request, reason))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args):
    """Run every workload in a process of its own, so that each reports
    its own peak RSS, and merge the results under `<workload>.` names."""
    metrics, attempted, failed = {}, 0, 0
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        got = json.loads(lines[-1])
        metrics.update({name + "." + k: v
                        for k, v in got["metrics"].items()})
        attempted += got["attempted"]
        failed += got["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
