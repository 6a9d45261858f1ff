"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Criteria with runtime budgets clear the expansion caches first so
the measured time is a cold computation, not a cache hit.
"""

import time
from fractions import Fraction

from lindeg.combinatorics import (
    bell_number,
    leq,
    motzkin_number,
    motzkin_paths,
    pbw_locus_ranks,
    ptuples,
    rank_from_motzkin,
    single_peak_paths,
)
from lindeg.duality import dual_rank_tuple, kz_rank_general
from lindeg.combinatorics import path_to_multisegment
from lindeg.expansion import (
    bar_transition_matrix,
    canonical_coeffs,
    canonical_transition_matrix,
    pbw_coeff,
)
from lindeg.laurent import ONE, ZERO, qbinom, qfact, qint
from lindeg.supports import (
    all_checks_pass,
    computed_supports,
    predicted_supports,
    verify_supports,
)
from oracles import kz_rank_simple, pbw_coeff_degree, pbw_coeff_degree_gap

import itertools


def _cold_caches():
    canonical_coeffs.cache_clear()


def _report(num, desc, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_golden_n2():
    _cold_caches()
    t0 = time.perf_counter()
    mu = canonical_coeffs(2)
    elapsed = time.perf_counter() - t0
    ok = mu == {(1,): ONE, (0,): qfact(3)} and elapsed < 1.0
    _report(1, "n=2 canonical expansion", ok, f"{elapsed:.3f}s")


def test_criterion_02_golden_n3():
    _cold_caches()
    t0 = time.perf_counter()
    mu = canonical_coeffs(3)
    ranks = {y: dual_rank_tuple(3, y).off_diagonal() for y in mu}
    elapsed = time.perf_counter() - t0
    ok = (mu == {(1, 1): qfact(2), (1, 0): qfact(3),
                 (0, 1): qfact(3), (0, 0): qfact(4)}
          and ranks == {(1, 1): (3, 2, 3), (1, 0): (3, 3, 4),
                        (0, 1): (4, 3, 3), (0, 0): (4, 4, 4)}
          and elapsed < 1.0)
    _report(2, "n=3 coefficients and rank tuples", ok, f"{elapsed:.3f}s")


def test_criterion_03_golden_n4():
    _cold_caches()
    t0 = time.perf_counter()
    mu = canonical_coeffs(4)
    ranks = {y: dual_rank_tuple(4, y).off_diagonal() for y in mu}
    kept = {ranks[y] for y in mu if dual_rank_tuple(4, y).geq_r1()}
    elapsed = time.perf_counter() - t0
    expected_mu = {
        (1, 2, 1): ONE, (1, 2, 0): qfact(2), (1, 1, 1): qfact(3),
        (1, 1, 0): qint(3) * qint(3) * qint(2), (1, 0, 1): qbinom(4, 2),
        (1, 0, 0): qint(4) * qint(3) * qint(3), (0, 2, 1): qfact(2),
        (0, 2, 0): qfact(2) * qfact(2), (0, 1, 1): qint(3) * qint(3) * qint(2),
        (0, 1, 0): qint(4) * qint(3) * qint(2) * qint(2),
        (0, 0, 1): qint(4) * qint(3) * qint(3), (0, 0, 0): qfact(5),
    }
    expected_ranks = {
        (1, 2, 1): (4, 3, 2, 4, 3, 4), (1, 2, 0): (4, 2, 2, 3, 3, 5),
        (1, 1, 1): (4, 4, 3, 5, 4, 4), (1, 1, 0): (4, 3, 3, 4, 4, 5),
        (1, 0, 1): (4, 4, 4, 5, 4, 4), (1, 0, 0): (4, 4, 4, 5, 5, 5),
        (0, 2, 1): (5, 3, 2, 3, 2, 4), (0, 2, 0): (5, 3, 3, 3, 3, 5),
        (0, 1, 1): (5, 4, 3, 4, 3, 4), (0, 1, 0): (5, 4, 4, 4, 4, 5),
        (0, 0, 1): (5, 5, 4, 5, 4, 4), (0, 0, 0): (5, 5, 5, 5, 5, 5),
    }
    supports = {expected_ranks[y] for y in
                [(1, 2, 1), (1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0),
                 (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0)]}
    ok = (mu == expected_mu and ranks == expected_ranks
          and kept == supports and len(kept) == 9 and elapsed < 5.0)
    _report(3, "n=4 full table and support filter", ok, f"{elapsed:.3f}s")


def test_criterion_04_pipeline_crosscheck():
    _cold_caches()
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        if computed_supports(n) != predicted_supports(n):
            ok = False
            break
        survivors = {y for y in canonical_coeffs(n)
                     if dual_rank_tuple(n, y).geq_r1()}
        if survivors != set(motzkin_paths(n)):
            ok = False
            break
        if not all_checks_pass(verify_supports(n)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(4, "support pipelines agree for n=1..6", ok, f"{elapsed:.1f}s")


def test_criterion_05_duality_oracle():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for x in ptuples(n):
            m = path_to_multisegment(n, x)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    if kz_rank_general(m, i, j) != kz_rank_simple(n, x, i, j):
                        ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(5, "brute-force duality equals closed form, n<=5", ok,
            f"{elapsed:.2f}s")


def test_criterion_06_bar_identities():
    ok = True
    for n in range(1, 6):
        w = bar_transition_matrix(n)
        z = canonical_transition_matrix(n)
        pset = ptuples(n)
        for x in pset:
            for y in pset:
                if not leq(y, x):
                    continue
                between = list(itertools.product(
                    *[range(a, b + 1) for a, b in zip(y, x)]))
                invol = ZERO
                invar = ZERO
                for m in between:
                    wmy = w.get((m, y))
                    if wmy is None:
                        continue
                    wxm = w.get((x, m))
                    if wxm is not None:
                        invol = invol + wxm.bar() * wmy
                    zxm = z.get((x, m))
                    if zxm is not None:
                        invar = invar + zxm.bar() * wmy
                if invol != (ONE if x == y else ZERO):
                    ok = False
                if invar != z.get((x, y), ZERO):
                    ok = False
        for (x, y), entry in z.items():
            if x != y and entry.degree() >= 0:
                ok = False
    _report(6, "bar involutivity, bar invariance, strict negativity", ok,
            "n<=5 exact")


def test_criterion_07_degree_formulas():
    ok = True
    for n in range(1, 7):
        pset = ptuples(n)
        degs = {}
        for y in pset:
            degs[y] = pbw_coeff(n, y).degree()
            if pbw_coeff_degree(n, y) != degs[y]:
                ok = False
        for y in pset:
            for z in pset:
                if pbw_coeff_degree_gap(n, y, z) != degs[y] - degs[z]:
                    ok = False
        for y in motzkin_paths(n):
            for z in pset:
                if leq(y, z) and z != y and pbw_coeff_degree_gap(n, y, z) < 0:
                    ok = False
    _report(7, "closed-form degrees and gaps", ok, "n<=6, all pairs")


def test_criterion_08_pbw_locus():
    ok = True
    for n in range(1, 9):
        locus = pbw_locus_ranks(n)
        peaks = single_peak_paths(n)
        if len(locus) != 2 ** (n - 1) or len(peaks) != 2 ** (n - 1):
            ok = False
        images = [rank_from_motzkin(n, x) for x in peaks]
        if len(set(images)) != len(images) or set(images) != set(locus):
            ok = False
        if not set(locus) <= set(predicted_supports(n)):
            ok = False
    _report(8, "PBW locus counts, bijection, inclusion", ok, "n<=8")


def test_criterion_09_counting():
    ok = True
    for n in range(1, 13):
        if len(motzkin_paths(n)) != motzkin_number(n):
            ok = False
    if [motzkin_number(n) for n in (2, 3, 4)] != [2, 4, 9]:
        ok = False
    ratios = [Fraction(motzkin_number(n), bell_number(n))
              for n in range(1, 31)]
    for i in range(3, 29):
        if not ratios[i] > ratios[i + 1]:
            ok = False
    if not ratios[29] < Fraction(1, 10 ** 6):
        ok = False
    _report(9, "Motzkin enumeration counts and decay table", ok,
            "n<=12 counts, ratios to n=30")


def test_criterion_10_full_rank_orbit_coefficient():
    # at n=2 the term attached to the full-rank orbit closure carries the
    # flag-variety Poincare polynomial: [3]! with palindromic coefficients
    mu = canonical_coeffs(2)
    coeff = mu[(0,)]
    rank = dual_rank_tuple(2, (0,)).off_diagonal()
    seq = coeff.coefficients_descending()
    dense = [c for c in seq if c]
    ok = (coeff == qfact(3) and rank == (3,)
          and dense == [1, 2, 2, 1] and dense == dense[::-1]
          and coeff == coeff.bar())
    _report(10, "full-rank orbit coefficient is the flag Poincare "
                "polynomial", ok, "coefficients (1, 2, 2, 1)")
