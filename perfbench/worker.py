"""Benchmark worker: one interpreter that imports lindeg and serves requests.

Run as ``python3 perfbench/worker.py --src <checkout>/src [--trace]``.  It
imports the package, prints ``ready`` and then answers one JSON request
per input line with one JSON reply line:

* ``{"op": "cli", "id": r, "argv": [...]}`` runs ``lindeg.cli.main(argv)``
  with its standard output captured and replies with the exit code, the
  SHA-256 of the output, its last line and the seconds spent in ``main``.
* ``{"op": "layers", "n": n}`` replies with exact work counters of the
  expansion at n, read from the cached W, Z and mu.
* ``{"op": "kernel", "seed": s, "pairs": p}`` replays operand pairs drawn
  from the n = 6 W and Z matrices through ``LaurentPoly`` multiply and
  ``exact_div``.
* ``{"op": "direct", "seed": s}`` times the duality and the combinatorial
  support pipeline outside the CLI.
* ``{"op": "exit"}`` replies with the peak resident memory and exits.

With ``--trace`` the public layer functions are wrapped so that each call
records a span, and each ``cli`` reply carries the spans of its request.
Only the package's public functions are called; nothing in it is changed
except these wrappers, which are installed in this process only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time

from spans import Tracer

#: Functions wrapped in traced workers, by module.  Every name in any
#: lindeg module that refers to one of them is rebound, so calls made
#: inside the package (cli -> supports -> expansion) are traced as well.
TRACED = {
    "expansion": ("bar_transition_matrix", "canonical_transition_matrix",
                  "canonical_coeffs"),
    "supports": ("predicted_supports", "computed_supports",
                 "verify_supports"),
}
REPEATS = 5


def run_cli(main, argv):
    """Run the CLI once; return (exit code, stdout SHA-256, last line,
    seconds spent in ``main``)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - t0
    out = buf.getvalue()
    tail = out.rstrip("\n").rsplit("\n", 1)[-1]
    return code, hashlib.sha256(out.encode()).hexdigest(), tail, elapsed


def instrument(tracer):
    modules = [m for name, m in sys.modules.items()
               if name == "lindeg" or name.startswith("lindeg.")]
    for home, names in TRACED.items():
        for fname in names:
            fn = getattr(sys.modules["lindeg." + home], fname)
            traced = tracer.wrap(fn, f"{home}.{fname}")
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is fn]:
                    setattr(m, attr, traced)


def layer_counts(lindeg, n):
    """Exact work counters of the expansion at n.

    |P| and the numbers of comparable pairs and of Laurent products in the
    Z solve come from closed forms over P(n); the entry counts, term counts
    and coefficient widths come from the dicts the package returns.  For a
    box 0 <= y <= x the sum over y of prod_k (x_k - y_k + 1) is
    prod_k T(x_k + 1) with T the triangular numbers, which gives the
    products Sigma_{y<x} (prod_k (x_k - y_k + 1) - 2) without a loop over y.
    """
    P = lindeg.ptuples(n)
    boxes = [math.prod(c + 1 for c in x) for x in P]
    tri = [math.prod((c + 1) * (c + 2) // 2 for c in x) for x in P]
    out = {"parameter_set": len(P), "pairs": sum(boxes),
           "products": sum(t - 1 - 2 * (b - 1) for t, b in zip(tri, boxes))}
    mats = {"bar_transition_matrix": lindeg.bar_transition_matrix(n),
            "canonical_transition_matrix":
                lindeg.canonical_transition_matrix(n)}
    for name, mat in mats.items():
        coeffs = [int(c) for p in mat.values() for _, c in p.to_pairs()]
        out[name] = {"entries": len(mat), "terms": len(coeffs),
                     "max_coeff_bits": max(abs(c).bit_length()
                                           for c in coeffs)}
    out["canonical_coeffs"] = {"nonzero": len(lindeg.canonical_coeffs(n))}
    return out


def kernel_replay(lindeg, seed, count):
    """Time ``a * b`` and ``(a * b).exact_div(b)`` on operand pairs of the
    n = 6 Z solve: a = bar(Z(x, m)), b = W(m, y) for seeded y < m < x."""
    W = lindeg.bar_transition_matrix(6)
    Z = lindeg.canonical_transition_matrix(6)
    P = lindeg.ptuples(6)
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        x = rng.choice(P)
        y = tuple(rng.randint(0, c) for c in x)
        m = tuple(rng.randint(a, b) for a, b in zip(y, x))
        if m != x and m != y and (x, m) in Z and (m, y) in W:
            pairs.append((Z[(x, m)].bar(), W[(m, y)]))
    term_pairs = sum(len(a.to_pairs()) * len(b.to_pairs()) for a, b in pairs)
    mul, div = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        prods = [a * b for a, b in pairs]
        t1 = time.perf_counter()
        quots = [p.exact_div(b) for p, (_, b) in zip(prods, pairs)]
        t2 = time.perf_counter()
        mul.append(t1 - t0)
        div.append(t2 - t1)
    return {"pairs": count, "term_pairs": term_pairs,
            "mul_s": statistics.median(mul), "div_s": statistics.median(div),
            "failed": sum(q != a for q, (a, _) in zip(quots, pairs))}


def direct_timings(lindeg, seed):
    """Per-call times of dual_rank_tuple_general (two seeded pool
    multisegments per k) and predicted_supports (one call per k), k = 1..8,
    called directly rather than through the CLI."""
    from lindeg.cli import parse_multisegment
    from stream import MAX_K, dual_pool

    rng = random.Random(seed)
    segs = [parse_multisegment(s, k) for k in range(1, MAX_K + 1)
            for s in rng.sample(dual_pool(k), 2)]
    ks = range(1, MAX_K + 1)
    dual, pred = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for m in segs:
            lindeg.dual_rank_tuple_general(m)
        t1 = time.perf_counter()
        for k in ks:
            lindeg.predicted_supports(k)
        t2 = time.perf_counter()
        dual.append((t1 - t0) / len(segs))
        pred.append((t2 - t1) / len(ks))
    return {"dual_s": statistics.median(dual), "dual_calls": len(segs),
            "predicted_s": statistics.median(pred), "predicted_calls": len(ks)}


def serve(lindeg, tracer, requests, replies):
    from lindeg.cli import main as cli_main

    for line in requests:
        req = json.loads(line)
        op = req["op"]
        if op == "exit":
            reply = {"maxrss_kb":
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        elif op == "cli":
            argv = req["argv"]
            if tracer is None:
                code, digest, tail, elapsed = run_cli(cli_main, argv)
            else:
                tracer.request = req["id"]
                with tracer.span(f"cli.{argv[0]}"):
                    code, digest, tail, elapsed = run_cli(cli_main, argv)
            reply = {"exit": code, "sha256": digest, "tail": tail,
                     "service_s": elapsed}
            if tracer is not None:
                reply["spans"] = tracer.take()
        elif op == "layers":
            reply = layer_counts(lindeg, req["n"])
        elif op == "kernel":
            reply = kernel_replay(lindeg, req["seed"], req["pairs"])
        elif op == "direct":
            reply = direct_timings(lindeg, req["seed"])
        else:
            raise ValueError(f"unknown op {op!r}")
        if tracer is not None and op != "cli":
            tracer.take()  # spans of calls made only to read counters
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
        if op == "exit":
            return


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding lindeg")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import lindeg
    import lindeg.cli  # noqa: F401  (its import cost belongs to set-up)

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
    replies = sys.stdout
    replies.write("ready\n")
    replies.flush()
    serve(lindeg, tracer, sys.stdin, replies)


if __name__ == "__main__":
    main()
