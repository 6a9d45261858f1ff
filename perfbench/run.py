"""The lindeg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see README.md for why each exists):

* ``verify-n6``: every sample is a fresh worker interpreter that runs
  ``lindeg.cli.main(["verify", "6"])`` cold.  The seed is recorded only:
  the input is fixed by n.
* ``verify-n7``: the same at n = 7.  One cold sample takes over a minute,
  so it is not in BENCHMARK.json; its traced run is recorded once in
  ``results/``.
* ``queries``: one long-lived worker serves the seeded request stream of
  stream.py.

The client is closed-loop (one request at a time) and at most one worker
process is alive at a time.  Every request's exit code and stdout digest
are checked against golden.json; a mismatch counts as a failed operation.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a separate traced run.
``--workload all`` runs every workload of BENCHMARK.json both ways.  Each
run prints its metrics by name with units and sample counts, writes its
spans and samples to ``.bench_out/``, and ends with one JSON line.  The
exit code is 1 if any operation failed, 2 if the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from spans import Tracer, self_times
from stream import query_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

PASS_LINE = "result: PASS (7/7 checks)"
#: |P(n)|, comparable pairs and Z-solve products; they never vary.
EXPECTED_COUNTS = {6: {"parameter_set": 144, "pairs": 3240, "products": 25664},
                   7: {"parameter_set": 576, "pairs": 32400,
                       "products": 575776}}
WORKLOADS = {"verify-n6": 6, "verify-n7": 7, "queries": None}
#: Seconds after which a run's workers are killed.  Driven workloads must
#: end within 180 s; verify-n7 needs two cold runs of over a minute each.
DEADLINE = {"verify-n6": 170, "verify-n7": 600, "queries": 170}
SETUP_REPEATS = 15
WINDOW = 1000          # requests per window: 10 samples lie beyond its p99
TRACE_ROUNDS = 20      # rounds of the stream served by the traced worker
KERNEL_PAIRS = 2000


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


class Worker:
    """One worker subprocess; ``setup_s`` is spawn to ready."""

    def __init__(self, deadline, trace=False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC)]
        # Workers import from cached bytecode, as an installed package
        # does; compile_bytecode's untimed first start writes it.
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd + ["--trace"] * trace, cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._timer = threading.Timer(max(0.0, deadline - t0), self.proc.kill)
        self._timer.daemon = True
        self._timer.start()
        if self.proc.stdout.readline() != "ready\n":
            self.kill()
            raise Fatal("the worker did not start (is src/lindeg present?)")
        self.setup_s = time.perf_counter() - t0

    def call(self, **request):
        """Send one request and return the reply."""
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise Fatal("the worker exited") from None
        line = self.proc.stdout.readline()
        if not line:
            what = request.get("argv") or request["op"]
            raise Fatal(f"the worker exited during {what}")
        return json.loads(line)

    def close(self):
        """Ask the worker to exit; return its peak resident memory in KiB."""
        reply = self.call(op="exit")
        self.proc.wait()
        self.kill()
        return reply["maxrss_kb"]

    def kill(self):
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.kill()


class Gate:
    """Golden-output gate: counts attempted and failed operations."""

    def __init__(self):
        try:
            self.golden = json.loads(GOLDEN.read_text())["digests"]
        except (OSError, ValueError, KeyError) as exc:
            raise Fatal(f"cannot read {GOLDEN.name}: {exc}") from None
        self.attempted = 0
        self.failures = []

    def check(self, argv, reply):
        want = self.golden.get(" ".join(argv))
        ok = (want is not None and reply["exit"] == want["exit"] == 0
              and reply["sha256"] == want["sha256"]
              and (argv[0] != "verify" or reply["tail"] == PASS_LINE))
        self.count(ok, " ".join(argv))

    def count(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(setup, latencies, rss_kb):
    """Latency metrics.  The machine's speed drifts for seconds at a time,
    so the tail and the throughput are taken per window of WINDOW
    consecutive requests, and the median over the windows is reported: a
    slow spell then moves a minority of windows, not the whole result.
    A run with fewer than WINDOW requests is one window, whose tail is
    its median, as too few samples lie beyond any higher percentile."""
    n = len(latencies)
    windows = [latencies[i:i + WINDOW]
               for i in range(0, max(n - WINDOW + 1, 1), WINDOW)]
    if n >= WINDOW:
        q = 99
        tails = [statistics.quantiles(w, n=100, method="inclusive")[98]
                 for w in windows]
    else:
        q, tails = 50, [statistics.median(latencies)]
    tail_ms = statistics.median(tails) * 1e3
    rate = statistics.median(len(w) / sum(w) for w in windows)
    per_window = {"windows": len(windows)}
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms", n),
        "latency_tail_ms": {**metric(tail_ms, "ms", n), "percentile": q,
                            **per_window},
        "requests_per_s": {**metric(rate, "1/s", n), **per_window},
        "peak_rss_mb": metric(rss_kb / 1024, "MB", 1),
    }


def compile_bytecode(deadline):
    """Start one worker untimed, so no timed start compiles bytecode."""
    with Worker(deadline) as w:
        w.close()


def run_verify(n, seconds, gate, deadline):
    compile_bytecode(deadline)
    setup, latencies, rss = [], [], []
    argv = ["verify", str(n)]
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        with Worker(deadline) as w:
            setup.append(w.setup_s)
            reply = w.call(op="cli", id=len(latencies), argv=argv)
            gate.check(argv, reply)
            latencies.append(reply["service_s"])
            rss.append(w.close())
    return end_to_end(setup, latencies, statistics.median(rss)), {
        "latencies_s": latencies, "setup_s": setup, "maxrss_kb": rss}


def run_queries(seed, seconds, gate, deadline):
    compile_bytecode(deadline)
    setup = []
    # Set-up is generating the stream plus starting a worker; the last of
    # the workers started serves the stream.
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rounds = query_stream(seed)
        w = Worker(deadline)
        setup.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPEATS:
            w.close()
    with w:
        # one untimed round fills the package's caches (expand k <= 5)
        for rid, argv in enumerate(rounds[0]):
            gate.check(argv, w.call(op="cli", id=rid, argv=argv))
        stream = itertools.cycle(rounds[1:])
        latencies = []
        start = time.perf_counter()
        while (len(latencies) < WINDOW
               or time.perf_counter() - start < seconds):
            for argv in next(stream):
                reply = w.call(op="cli", id=len(latencies), argv=argv)
                gate.check(argv, reply)
                latencies.append(reply["service_s"])
        rss_kb = w.close()
    return end_to_end(setup, latencies, rss_kb), {
        "latencies_s": latencies, "setup_s": setup, "maxrss_kb": rss_kb}


def traced_request(w, argv, rid, gate, client, worker_id, spans):
    client.request = rid
    with client.span(f"client.{argv[0]}"):
        reply = w.call(op="cli", id=rid, argv=argv)
    gate.check(argv, reply)
    for s in reply["spans"]:
        s["worker"] = worker_id
    spans.extend(reply["spans"])
    return reply["spans"], reply["service_s"]


def run_trace(n, seed, seconds, gate, deadline):
    """Per-layer metrics.  Cold verify at n in fresh workers, alternately
    untraced and traced, for ``seconds``; then the Laurent replay and the
    direct timings in an untraced worker; then TRACE_ROUNDS rounds of the
    query stream in a traced worker."""
    compile_bytecode(deadline)
    client, spans = Tracer(), []
    plain, traced, layers, counts = [], [], [], None
    argv = ["verify", str(n)]
    rid = itertools.count()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        with Worker(deadline) as w:
            reply = w.call(op="cli", id=next(rid), argv=argv)
            gate.check(argv, reply)
            plain.append(reply["service_s"])
            w.close()
        with Worker(deadline, trace=True) as w:
            got, elapsed = traced_request(w, argv, next(rid), gate, client,
                                          w.proc.pid, spans)
            traced.append(elapsed)
            self_s = self_times(got)
            rss = {}
            for s in got:  # in end order, so the first is the cold call
                rss.setdefault(s["name"], s["maxrss_kb"])
            layers.append((self_s, rss, elapsed))
            if counts is None:
                counts = w.call(op="layers", n=n)
            w.close()

    with Worker(deadline) as w:
        kernel = w.call(op="kernel", seed=seed, pairs=KERNEL_PAIRS)
        direct = w.call(op="direct", seed=seed)
        w.close()
    gate.count(kernel["failed"] == 0, "exact_div(a * b, b) == a replay")

    per_kind = {}
    with Worker(deadline, trace=True) as w:
        for argv in itertools.chain.from_iterable(
                query_stream(seed, TRACE_ROUNDS)):
            got, _ = traced_request(w, argv, next(rid), gate, client,
                                    w.proc.pid, spans)
            top = [s for s in got if s["parent"] is None]
            per_kind.setdefault(argv[0], []).append(
                top[0]["end"] - top[0]["start"])
        w.close()
    spans.extend(dict(s, worker="client") for s in client.take())

    want = EXPECTED_COUNTS.get(n)
    got_counts = {k: counts[k] for k in ("parameter_set", "pairs", "products")}
    gate.count(want is None or got_counts == want,
               f"work counters {got_counts}")
    for mat in ("bar_transition_matrix", "canonical_transition_matrix"):
        gate.count(counts[mat]["entries"] == counts["pairs"],
                   f"{mat} entries {counts[mat]['entries']}")

    def layer_s(name):
        return statistics.median(s.get(name, 0.0) for s, _, _ in layers)

    def layer_pct(name):
        return statistics.median(100 * s.get(name, 0.0) / t
                                 for s, _, t in layers)

    def layer_mb(name):
        return statistics.median(r[name] for _, r, _ in layers) / 1024

    verify_s = statistics.median(plain)
    k = len(traced)
    m = {
        "expansion.parameter_set.size": metric(counts["parameter_set"],
                                               "count", 1),
        "expansion.pairs": metric(counts["pairs"], "count", 1),
    }
    for mat in ("bar_transition_matrix", "canonical_transition_matrix"):
        name = f"expansion.{mat}"
        m[f"{name}.s"] = metric(layer_s(name), "s", k)
        m[f"{name}.share_pct"] = metric(layer_pct(name), "%", k)
        for c, unit in (("entries", "count"), ("terms", "count"),
                        ("max_coeff_bits", "bits")):
            m[f"{name}.{c}"] = metric(counts[mat][c], unit, 1)
        m[f"{name}.rss_mb"] = metric(layer_mb(name), "MB", k)
    z = "expansion.canonical_transition_matrix"
    m[f"{z}.products"] = metric(counts["products"], "count", 1)
    m[f"{z}.products_per_s"] = metric(counts["products"] / layer_s(z),
                                      "1/s", k)
    m["expansion.canonical_coeffs.s"] = metric(
        layer_s("expansion.canonical_coeffs"), "s", k)
    m["expansion.canonical_coeffs.nonzero"] = metric(
        counts["canonical_coeffs"]["nonzero"], "count", 1)
    for name in ("computed_supports", "predicted_supports", "verify_supports"):
        m[f"supports.{name}.s"] = metric(layer_s(f"supports.{name}"), "s", k)
    m["cli.verify.render_s"] = metric(layer_s("cli.verify"), "s", k)
    m["laurent.mul.ns_per_term_pair"] = metric(
        kernel["mul_s"] / kernel["term_pairs"] * 1e9, "ns", kernel["pairs"])
    m["laurent.exact_div.us"] = metric(
        kernel["div_s"] / kernel["pairs"] * 1e6, "us", kernel["pairs"])
    for kind in sorted(per_kind):
        m[f"cli.{kind}.p50_ms"] = metric(
            statistics.median(per_kind[kind]) * 1e3, "ms", len(per_kind[kind]))
    m["duality.dual_rank_tuple_general.ms"] = metric(
        direct["dual_s"] * 1e3, "ms", direct["dual_calls"])
    m["combinatorics.predicted_supports.ms"] = metric(
        direct["predicted_s"] * 1e3, "ms", direct["predicted_calls"])
    m["tracing.verify_s"] = metric(statistics.median(traced), "s", k)
    # each traced sample minus the untraced one run just before it
    m["tracing.overhead_s"] = metric(
        statistics.median(t - p for t, p in zip(traced, plain)), "s", k)
    m["tracing.untraced_verify_s"] = metric(verify_s, "s", len(plain))
    return m, {"spans": spans, "counts": counts, "kernel": kernel,
               "plain_s": plain, "traced_s": traced}


def source_commit():
    """The commit checked out at ROOT, read from .git without running git;
    None in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((SRC / "lindeg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": source_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


ALIASES = {
    # the same values under workload-specific names
    "verify-n6": {"verify_s": ("latency_p50_ms", 1e-3, "s")},
    "verify-n7": {"verify_s": ("latency_p50_ms", 1e-3, "s")},
    "queries": {"query_p50_ms": ("latency_p50_ms", 1, "ms"),
                "query_p99_ms": ("latency_tail_ms", 1, "ms"),
                "queries_per_s": ("requests_per_s", 1, "1/s")},
}


def run_one(workload, seed, seconds, trace):
    if not (SRC / "lindeg" / "__init__.py").is_file():
        raise Fatal(f"no lindeg package under {SRC}")
    gate = Gate()
    deadline = time.perf_counter() + DEADLINE[workload]
    n = WORKLOADS[workload]
    if trace:
        metrics, detail = run_trace(n or 6, seed, seconds, gate, deadline)
    elif n is None:
        metrics, detail = run_queries(seed, seconds, gate, deadline)
    else:
        metrics, detail = run_verify(n, seconds, gate, deadline)
    env = environment(seed)
    failed = len(gate.failures)
    lines = [f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}",
             f"# environment {json.dumps(env)}"]
    for name, v in metrics.items():
        at = f"p{v['percentile']}, " if "percentile" in v else ""
        if v.get("windows", 1) > 1:
            at += f"median of {v['windows']} windows, "
        lines.append(f"{name:48s} {v['value']:.6g} {v['unit']} "
                     f"({at}samples: {v['samples']})")
    if not trace:
        for alias, (base, scale, unit) in ALIASES[workload].items():
            v = metrics[base]
            lines.append(f"{alias:48s} {v['value'] * scale:.6g} {unit} "
                         f"(= {base}, samples: {v['samples']})")
    lines.append(f"{'failed_frac':48s} {failed / gate.attempted:.6g} "
                 f"(failed {failed} of {gate.attempted} operations)")
    lines += [f"# FAILED: {what}" for what in gate.failures[:10]]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": workload, "environment": env,
                    "seconds": seconds, "metrics": metrics,
                    "failures": gate.failures, **detail}) + "\n")
    result = {"correct": failed == 0, "attempted": gate.attempted,
              "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}}
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description="lindeg benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        runs = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    results = {}
    try:
        for workload, trace in runs:
            lines, result = run_one(workload, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            results[f"{workload}/trace{trace}"] = result
    except Fatal as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    last = result if len(runs) == 1 else results
    print(json.dumps(last))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
