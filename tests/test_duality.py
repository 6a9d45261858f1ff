"""Duality rank tuples: the Moeglin-Waldspurger loop, the closed form and
the minimum over monotone maps by enumeration and by min-plus recursion."""

import itertools
import random
import re

import pytest

import oracles
from lindeg.cli import parse_multisegment
from lindeg.combinatorics import (
    Multisegment,
    RankTuple,
    motzkin_paths,
    path_to_multisegment,
    ptuples,
)
from lindeg.duality import (
    _dual_multisegment,
    dual_rank_tuple,
    dual_rank_tuple_general,
    dual_rank_tuple_near_simple,
    kz_rank_general,
    monotone_maps,
    next_neighbor_rank,
)
from oracles import kz_rank_near_simple, kz_rank_simple
from test_output_digest import _dual_pool


def brute_monotone_count(nrows, ncols, lo, hi):
    """Filter the full grid of value tables for monotonicity."""
    count = 0
    cells = nrows * ncols
    for flat in itertools.product(range(lo, hi + 1), repeat=cells):
        grid = [flat[r * ncols:(r + 1) * ncols] for r in range(nrows)]
        ok = all(grid[r][c] <= grid[r][c + 1]
                 for r in range(nrows) for c in range(ncols - 1))
        ok = ok and all(grid[r][c] <= grid[r + 1][c]
                        for r in range(nrows - 1) for c in range(ncols))
        if ok:
            count += 1
    return count


def test_monotone_maps_counts():
    assert sum(1 for _ in monotone_maps(1, 1, 2, 5)) == 4
    for nrows, ncols, lo, hi in [(2, 2, 1, 3), (2, 3, 2, 3), (3, 2, 0, 2),
                                 (1, 4, 0, 2), (1, 3, 2, 2), (4, 1, 1, 3),
                                 (3, 1, 0, 0)]:
        got = sum(1 for _ in monotone_maps(nrows, ncols, lo, hi))
        assert got == brute_monotone_count(nrows, ncols, lo, hi)
    for nrows, ncols in [(1, 1), (1, 3), (3, 1), (2, 2)]:
        assert list(monotone_maps(nrows, ncols, 3, 2)) == []
    with pytest.raises(ValueError):
        next(monotone_maps(0, 2, 1, 2))


def test_monotone_maps_are_in_lexicographic_order():
    # demo 03 prints the first and the last map
    for grid in itertools.product(range(1, 4), range(1, 4), range(0, 2),
                                  range(0, 4)):
        maps = list(monotone_maps(*grid))
        assert maps == sorted(set(maps)), grid


def test_monotone_maps_are_monotone():
    for grid in monotone_maps(2, 3, 1, 3):
        for r in range(2):
            assert all(grid[r][c] <= grid[r][c + 1] for c in range(2))
        for c in range(3):
            assert grid[0][c] <= grid[1][c]


def test_general_on_zero_multisegment():
    zero = Multisegment(3)
    for i in range(1, 4):
        for j in range(i, 4):
            assert kz_rank_general(zero, i, j) == 0


def test_general_small_case():
    # the multisegment of the height-one path at n=2; full dual tuple
    # worked out by enumerating the (at most 2x2) grids directly
    m = path_to_multisegment(2, (1,))
    assert kz_rank_general(m, 1, 1) == 3
    assert kz_rank_general(m, 1, 2) == 2
    assert kz_rank_general(m, 2, 2) == 3


def test_oracle_agreement_exhaustive():
    for n in range(1, 6):
        for x in ptuples(n):
            dual = dual_rank_tuple_general(path_to_multisegment(n, x)).r
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    assert (dual[(i, j)]
                            == kz_rank_simple(n, x, i, j)), (n, x, i, j)


def intervals(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def assert_general_matches_oracle(m):
    n = m.n
    dual = dual_rank_tuple_general(m).r
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert (dual[(i, j)]
                    == oracles.kz_rank_general(m, i, j)), (m, i, j)


def test_row_recursion_matches_enumeration_exhaustive():
    # every multisegment with multiplicities in {0, 1, 2}, n <= 3
    for n in range(1, 4):
        segs = intervals(n)
        for mults in itertools.product(range(3), repeat=len(segs)):
            assert_general_matches_oracle(
                Multisegment(n, dict(zip(segs, mults))))


def test_row_recursion_matches_enumeration_sampled():
    rng = random.Random(20261018)
    for n, count in ((4, 60), (5, 40), (6, 20), (7, 10)):
        segs = intervals(n)
        for _ in range(count):
            chosen = rng.sample(segs, rng.randint(1, len(segs)))
            assert_general_matches_oracle(
                Multisegment(n, {s: rng.randint(1, 4) for s in chosen}))


N8_CASES = [
    "1,2=2;3,5=1;4,8=3;6,6=1",
    "1,8=1",
    "1,1=3;2,3=1;4,7=2;8,8=1",
    "1,4=2;2,6=1;5,8=3",
    "1,2=1;2,3=1;3,4=1;4,5=1;5,6=1;6,7=1;7,8=1",
    "2,7=2;3,3=1;4,5=4;6,6=2",
    "1,1=1;2,2=2;3,3=3;4,4=1;5,5=2;6,6=3;7,7=1;8,8=2",
    "1,5=1;1,3=2;4,8=1;6,8=2;2,2=1",
    "1,6=2;3,8=2;4,4=1",
]


def test_row_recursion_matches_enumeration_n8():
    for text in N8_CASES:
        m = parse_multisegment(text, 8)
        assert dual_rank_tuple_general(m) == oracles.dual_rank_tuple_general(m)


def random_multisegment(rng, n):
    segs = intervals(n)
    chosen = rng.sample(segs, rng.randint(1, len(segs)))
    return Multisegment(n, {s: rng.randint(1, 4) for s in chosen})


def test_dual_twice_gives_back_m_exhaustive():
    # the duality is an involution: every multisegment with n <= 4 and
    # multiplicities in {0, 1, 2}
    for n in range(1, 5):
        segs = intervals(n)
        for mults in itertools.product(range(3), repeat=len(segs)):
            m = Multisegment(n, dict(zip(segs, mults)))
            assert _dual_multisegment(_dual_multisegment(m)) == m, m


def test_dual_twice_gives_back_m_sampled():
    rng = random.Random(1986)
    for n in range(5, 11):
        for _ in range(40):
            m = random_multisegment(rng, n)
            assert _dual_multisegment(_dual_multisegment(m)) == m, m


def test_general_matches_minplus_on_benchmark_pool():
    # the multisegments of the benchmark's ``dual`` requests, k = 1..8
    pool = [parse_multisegment(text, k)
            for k, texts in _dual_pool().items() for text in texts]
    assert len(pool) == 192
    for m in pool:
        assert (dual_rank_tuple_general(m)
                == oracles.dual_rank_tuple_minplus(m)), m


def test_unchecked_dual_equals_validated_multisegment():
    # _dual_multisegment wraps its dict unchecked; the validating
    # constructor must accept it and give back the same items in order
    for k, texts in _dual_pool().items():
        for text in texts:
            dual = _dual_multisegment(parse_multisegment(text, k))
            checked = Multisegment(dual.n, dual.mult)
            assert type(dual) is Multisegment and dual.n == k
            assert list(dual.mult.items()) == list(checked.mult.items())
            assert dual == checked and hash(dual) == hash(checked), text


def test_general_matches_minplus_sampled():
    rng = random.Random(1996)
    for n, count in ((9, 8), (10, 4)):
        for _ in range(count):
            m = random_multisegment(rng, n)
            assert (dual_rank_tuple_general(m)
                    == oracles.dual_rank_tuple_minplus(m)), m


def test_general_equals_near_simple_with_free_diagonal():
    # the closed form covers any near-simple multisegment, not only the
    # ones coming from parameter tuples
    cases = [
        Multisegment(3, {(1, 1): 1, (2, 3): 2}),
        Multisegment(3, {(1, 2): 1, (2, 2): 5, (3, 3): 1}),
        Multisegment(4, {(1, 2): 2, (2, 3): 1, (3, 4): 2, (2, 2): 1}),
    ]
    for m in cases:
        assert dual_rank_tuple_general(m).r == {
            (i, j): kz_rank_near_simple(m, i, j)
            for i in range(1, m.n + 1) for j in range(i, m.n + 1)}
        assert dual_rank_tuple_near_simple(m) == dual_rank_tuple_general(m)


def test_sweep_matches_per_entry_form():
    # the O(n^2) row sweep against the per-entry closed form
    for n in range(1, 9):
        for y in ptuples(n):
            m = path_to_multisegment(n, y)
            per_entry = RankTuple(n, {
                (i, j): kz_rank_near_simple(m, i, j)
                for i in range(1, n + 1) for j in range(i, n + 1)})
            assert dual_rank_tuple(n, y) == per_entry, (n, y)


def test_simple_values():
    assert kz_rank_simple(3, (1, 0), 2, 3) == 4
    assert kz_rank_simple(3, (1, 1), 1, 3) == 2
    for n in range(1, 6):
        for x in ptuples(n):
            for i in range(1, n + 1):
                assert kz_rank_simple(n, x, i, i) == n + 1


def test_next_neighbor():
    assert next_neighbor_rank(3, (1, 0), 1) == 3
    assert next_neighbor_rank(4, (0, 2, 0), 2) == 3
    for n in range(2, 9):
        for x in motzkin_paths(n):
            for i in range(1, n):
                assert next_neighbor_rank(n, x, i) in (n, n + 1)
    for n in range(2, 7):
        for x in ptuples(n):
            rt = dual_rank_tuple(n, x)
            for i in range(1, n):
                assert rt[(i, i + 1)] == next_neighbor_rank(n, x, i)


def test_membership_dichotomy():
    # Motzkin paths pass the threshold filter; everything else fails a
    # next-neighbour bound
    motzkin = {n: set(motzkin_paths(n)) for n in range(1, 9)}
    for n in range(1, 9):
        for x in ptuples(n):
            above = dual_rank_tuple(n, x).geq_r1()
            assert above == (x in motzkin[n])
            if not above:
                assert min(next_neighbor_rank(n, x, i)
                           for i in range(1, n)) < n


def test_reversal_matches_hat():
    for n in range(1, 7):
        for x in ptuples(n):
            rev = tuple(reversed(x))
            assert dual_rank_tuple(n, rev) == dual_rank_tuple(n, x).hat()


def test_closed_forms_refuse_tuples_outside_the_parameter_set():
    for bad in [(2, 0), (-1, 0), (1,), (1, 1, 1)]:
        message = re.escape(f"{bad!r} is not a parameter tuple for n=3")
        with pytest.raises(ValueError, match=message):
            dual_rank_tuple(3, bad)
        with pytest.raises(ValueError, match=message):
            next_neighbor_rank(3, bad, 1)


def test_errors():
    long_segment = Multisegment(3, {(1, 3): 1})
    with pytest.raises(ValueError):
        kz_rank_near_simple(long_segment, 1, 2)
    with pytest.raises(ValueError):
        dual_rank_tuple_near_simple(long_segment)
    # general formula still works: the only summands are point
    # multiplicities, all zero here
    assert kz_rank_general(long_segment, 1, 3) == 0
    with pytest.raises(ValueError):
        kz_rank_general(long_segment, 2, 1)
    with pytest.raises(ValueError):
        kz_rank_simple(3, (2, 0), 1, 2)  # outside the parameter set
    with pytest.raises(ValueError):
        next_neighbor_rank(3, (1, 1), 3)
