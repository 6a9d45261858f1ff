"""Seeded request streams for the ``queries`` workload.

The stream is built in rounds.  Every round holds the same request shapes
in a seeded order: ``supports k`` and ``motzkin k`` for k = 1..8,
``expand k`` for k = 1..5, one ``asymptotics m`` and one ``dual`` request
for each k = 1..8.  Fixing the shapes per round keeps the mix of cheap and
expensive requests the same for every seed, so the latency percentiles
move with the program and not with the draw.  The seed chooses the order,
``m`` and the multisegments.

Multisegments come from a fixed pool per k, so the set of requests any
seed can produce is finite and every one of them has a recorded golden
digest (see golden.py).
"""

from __future__ import annotations

import random

MAX_K = 8
EXPAND_MAX_K = 5
ASYMPTOTICS_MAX = 60
POOL_SIZE = 24
ROUNDS = 200


def dual_pool(k):
    """Fixed multisegments on [1, k], as CLI strings.  Half use only
    segments of length 1 or 2, so the near-simple closed form and its
    cross-check run as well as the brute-force formula."""
    rng = random.Random(1000 + k)
    pool = []
    for idx in range(POOL_SIZE):
        near_simple = idx % 2 == 0
        segs = [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)
                if not near_simple or j - i <= 1]
        chosen = rng.sample(segs, rng.randint(1, min(4, len(segs))))
        pool.append(";".join(f"{i},{j}={rng.randint(1, 3)}"
                             for i, j in sorted(chosen)))
    return pool


def one_round(rng, pools):
    reqs = [["supports", str(k)] for k in range(1, MAX_K + 1)]
    reqs += [["motzkin", str(k)] for k in range(1, MAX_K + 1)]
    reqs += [["expand", str(k)] for k in range(1, EXPAND_MAX_K + 1)]
    reqs.append(["asymptotics", str(rng.randint(1, ASYMPTOTICS_MAX))])
    reqs += [["dual", rng.choice(pools[k]), "--n", str(k)]
             for k in range(1, MAX_K + 1)]
    rng.shuffle(reqs)
    return reqs


def query_stream(seed, rounds=ROUNDS):
    """The request stream for a seed: a list of rounds of argv lists."""
    rng = random.Random(seed)
    pools = {k: dual_pool(k) for k in range(1, MAX_K + 1)}
    return [one_round(rng, pools) for _ in range(rounds)]


def universe():
    """Every request a benchmark run can send, verify included."""
    reqs = [["verify", "6"], ["verify", "7"]]
    reqs += [[cmd, str(k)] for cmd in ("supports", "motzkin")
             for k in range(1, MAX_K + 1)]
    reqs += [["expand", str(k)] for k in range(1, EXPAND_MAX_K + 1)]
    reqs += [["asymptotics", str(m)] for m in range(1, ASYMPTOTICS_MAX + 1)]
    reqs += [["dual", ms, "--n", str(k)] for k in range(1, MAX_K + 1)
             for ms in dual_pool(k)]
    return reqs
