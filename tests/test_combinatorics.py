"""Paths, parameter tuples, multisegments, rank tuples and counts."""

import copy
import itertools
import pickle
import random
import re

import pytest

import oracles
from lindeg.combinatorics import (
    Multisegment,
    RankTuple,
    _motzkin_numbers,
    _motzkin_rank,
    bell_number,
    has_single_peak,
    in_parameter_set,
    is_motzkin_path,
    leq,
    motzkin_number,
    motzkin_paths,
    path_to_multisegment,
    pbw_locus_ranks,
    ptuples,
    r1_tuple,
    rank_from_motzkin,
    single_peak_paths,
    upper_bounds,
)
from lindeg.duality import dual_rank_tuple


def set_partition_count(n):
    """Independent Bell-number oracle: count restricted growth strings."""
    def count(pos, top):
        if pos == n:
            return 1
        return sum(count(pos + 1, max(top, val))
                   for val in range(top + 2))
    return 1 if n == 0 else count(1, 0)


def test_motzkin_enumeration_small():
    assert motzkin_paths(1) == [()]
    assert motzkin_paths(2) == [(0,), (1,)]
    assert len(motzkin_paths(4)) == 9
    assert motzkin_paths(3) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_motzkin_lexicographic_and_counts():
    for n in range(1, 13):
        paths = motzkin_paths(n)
        assert paths == sorted(paths)
        assert len(set(paths)) == len(paths)
        assert len(paths) == motzkin_number(n)
        assert all(is_motzkin_path(n, x) for x in paths)


def test_motzkin_numbers():
    assert [motzkin_number(n) for n in (0, 2, 3, 4)] == [1, 2, 4, 9]
    assert motzkin_number(10) == 2188


def test_motzkin_numbers_match_the_convolution():
    # the three-term recurrence against the convolution, M_0 .. M_400
    fast = list(itertools.islice(_motzkin_numbers(), 401))
    assert fast == oracles.motzkin_numbers(401)


def test_bell_numbers():
    assert bell_number(0) == 1
    assert bell_number(3) == 5
    assert bell_number(4) == 15
    for n in range(0, 9):
        assert bell_number(n) == set_partition_count(n)


def test_ptuples():
    assert ptuples(2) == [(0,), (1,)]
    assert ptuples(3) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    p4 = ptuples(4)
    assert len(p4) == 12
    assert max(p4) == (1, 2, 1)
    assert upper_bounds(4) == (1, 2, 1)
    for n in range(1, 9):
        expected = 1
        for k in range(1, n):
            expected *= min(k, n - k) + 1
        assert len(ptuples(n)) == expected
        assert all(in_parameter_set(n, y) for y in ptuples(n))


def test_predicates_pick_out_the_enumerations():
    # is_motzkin_path is in_parameter_set plus unit steps; on the box of all
    # tuples with entries in [-1, n] each selects exactly its enumeration
    for n in range(1, 7):
        box = list(itertools.product(range(-1, n + 1), repeat=n - 1))
        assert [t for t in box if in_parameter_set(n, t)] == ptuples(n)
        assert [t for t in box if is_motzkin_path(n, t)] == motzkin_paths(n)
    for bad in [(0,), (0, 0, 0), (0.0, 0), (0, "1"), (None, 0)]:
        assert not in_parameter_set(3, bad) and not is_motzkin_path(3, bad)
    # an iterator is read once
    assert in_parameter_set(3, iter((1, 1)))
    assert is_motzkin_path(3, iter((1, 1)))


def test_has_single_peak_reads_an_iterator_once():
    # the path is checked and then walked; an iterator gives the answer of
    # its tuple
    assert not has_single_peak(4, iter((1, 0, 1)))
    for n in range(1, 7):
        for x in motzkin_paths(n):
            assert has_single_peak(n, iter(x)) == has_single_peak(n, x), x


def test_motzkin_paths_lie_in_parameter_set():
    for n in range(1, 11):
        pset = set(ptuples(n))
        for x in motzkin_paths(n):
            assert x in pset


def test_leq():
    assert leq((0, 1), (1, 1))
    assert not leq((1, 0), (0, 1))
    assert leq((1, 0), (1, 0))
    with pytest.raises(ValueError):
        leq((1,), (1, 0))


def test_path_to_multisegment():
    m = path_to_multisegment(2, (1,))
    assert m.mult == {(1, 1): 2, (1, 2): 1, (2, 2): 2}
    m = path_to_multisegment(3, (0, 0))
    assert m.mult == {(1, 1): 4, (2, 2): 4, (3, 3): 4}
    m = path_to_multisegment(4, (1, 2, 1))
    assert m.mult == {(1, 1): 4, (2, 2): 2, (3, 3): 2, (4, 4): 4,
                      (1, 2): 1, (2, 3): 2, (3, 4): 1}
    with pytest.raises(ValueError):
        path_to_multisegment(2, (4,))  # point multiplicity would go negative


def test_multisegment_rank():
    m = Multisegment(2, {(1, 1): 2, (1, 2): 1, (2, 2): 2})
    rt = m.rank_tuple()
    assert rt.r == {(1, 1): 3, (1, 2): 1, (2, 2): 3}
    zero = Multisegment(3)
    assert zero.rank_tuple().r == {k: 0 for k in zero.rank_tuple().r}
    one_long = Multisegment(4, {(1, 4): 1})
    assert all(v == 1 for v in one_long.rank_tuple().r.values())


def test_rank_tuple_matches_per_entry_definition():
    # the suffix sums against r_ij = sum of m_kl over k <= i, l >= j; all
    # multiplicities in {0, 1, 2} up to n = 3, in {0, 1} at n = 4
    for n, top in ((1, 2), (2, 2), (3, 2), (4, 1)):
        keys = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        for mults in itertools.product(range(top + 1), repeat=len(keys)):
            m = Multisegment(n, dict(zip(keys, mults)))
            assert m.rank_tuple().r == {
                (i, j): sum(v for (k, l), v in m.mult.items()
                            if k <= i and j <= l)
                for (i, j) in keys}, m


def test_rank_multisegment_roundtrip_exhaustive():
    for n in range(1, 4):
        keys = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        def all_multisegments(idx, acc):
            if idx == len(keys):
                yield Multisegment(n, dict(acc))
                return
            for v in range(4):
                acc[keys[idx]] = v
                yield from all_multisegments(idx + 1, acc)
            del acc[keys[idx]]
        for m in all_multisegments(0, {}):
            assert m.rank_tuple().to_multisegment() == m


def test_rank_multisegment_roundtrip_n4():
    keys = [(i, j) for i in range(1, 5) for j in range(i, 5)]
    # exhaustive over the 0/1 grid, then a seeded sample of the wider grid
    for mask in range(1 << len(keys)):
        m = Multisegment(4, {k: mask >> b & 1 for b, k in enumerate(keys)})
        assert m.rank_tuple().to_multisegment() == m
    rng = random.Random(23)
    for _ in range(2000):
        m = Multisegment(4, {k: rng.randint(0, 3) for k in keys})
        assert m.rank_tuple().to_multisegment() == m


def test_rank_to_multisegment_values():
    rt = RankTuple(3, {(1, 1): 4, (1, 2): 3, (1, 3): 2,
                       (2, 2): 4, (2, 3): 3, (3, 3): 4})
    m = rt.to_multisegment()
    assert m.mult == {(1, 1): 1, (1, 2): 1, (1, 3): 2, (2, 3): 1, (3, 3): 1}
    assert m.rank_tuple() == rt
    bad = RankTuple(2, {(1, 1): 0, (1, 2): 1, (2, 2): 0})
    with pytest.raises(ValueError):
        bad.to_multisegment()


def test_r1_tuple():
    assert r1_tuple(3).off_diagonal() == (3, 2, 3)
    assert r1_tuple(4).off_diagonal() == (4, 3, 2, 4, 3, 4)
    for n in range(1, 7):
        r1 = r1_tuple(n)
        assert all(r1[(i, i)] == n + 1 for i in range(1, n + 1))
        assert r1.hat() == r1
        assert r1.geq_r1()


def test_rank_from_motzkin_small():
    assert rank_from_motzkin(3, (1, 1)).off_diagonal() == (3, 2, 3)
    assert rank_from_motzkin(3, (1, 0)).off_diagonal() == (3, 3, 4)
    assert rank_from_motzkin(4, (1, 2, 1)).off_diagonal() == (4, 3, 2, 4, 3, 4)
    with pytest.raises(ValueError):
        rank_from_motzkin(3, (0, 2))


def test_rank_from_motzkin_dominates_threshold_and_injective():
    for n in range(1, 9):
        seen = set()
        for x in motzkin_paths(n):
            rt = rank_from_motzkin(n, x)
            assert rt.geq_r1(), (n, x)
            assert all(rt[(i, i)] == n + 1 for i in range(1, n + 1))
            seen.add(rt)
        assert len(seen) == motzkin_number(n)


def test_rank_sweep_matches_four_index_oracle():
    # the unchecked form too, which the predicted supports use
    for n in range(1, 11):
        for x in motzkin_paths(n):
            rt = rank_from_motzkin(n, x)
            assert rt == oracles.rank_from_motzkin(n, x)
            assert _motzkin_rank(n, x) == rt


def test_rank_tuple_keys_unchanged_on_supports():
    # equality, hash and order against the validated constructor and the
    # keys read in sorted (i, j) order
    for n in range(1, 9):
        tuples = [rank_from_motzkin(n, x) for x in motzkin_paths(n)]
        for rt in tuples:
            checked = RankTuple(n, dict(rt.r))
            by_sorted_keys = tuple(rt.r[k] for k in sorted(rt.r))
            assert rt == checked and checked == rt
            assert rt.values == by_sorted_keys
            assert hash(rt) == hash(checked) == hash((n, by_sorted_keys))
            assert rt.values == checked.values
        order = sorted(range(len(tuples)), key=lambda t: tuples[t])
        assert order == sorted(
            range(len(tuples)),
            key=lambda t: tuple(tuples[t].r[k] for k in sorted(tuples[t].r)))


def test_off_diagonal_in_stored_order():
    # the entries r_12, r_13, ..., r_{n-1,n}, whichever way the tuple was
    # built: the sweep, the near-simple dual, hat(), or the public
    # constructor from a dict in reversed key order
    for n in range(1, 9):
        for x in motzkin_paths(n):
            rt = rank_from_motzkin(n, x)
            built = (rt, rt.hat(), dual_rank_tuple(n, x),
                     RankTuple(n, dict(reversed(list(rt.r.items())))))
            for t in built:
                assert t.off_diagonal() == tuple(
                    t.r[(i, j)] for i in range(1, n + 1)
                    for j in range(i + 1, n + 1))


def test_hat():
    rt = rank_from_motzkin(3, (1, 0))
    assert rt.off_diagonal() == (3, 3, 4)
    assert rt.hat().off_diagonal() == (4, 3, 3)
    for n in range(1, 7):
        for x in motzkin_paths(n):
            rt = rank_from_motzkin(n, x)
            assert rt.hat().hat() == rt
            assert rt.geq_r1() == rt.hat().geq_r1()


def test_geq_r1_values():
    # off-diagonal (4, 2, 2, 3, 3, 5) with diagonal 5s
    rk2 = RankTuple(4, {(1, 1): 5, (1, 2): 4, (1, 3): 2, (1, 4): 2,
                        (2, 2): 5, (2, 3): 3, (2, 4): 3,
                        (3, 3): 5, (3, 4): 5, (4, 4): 5})
    assert not rk2.geq_r1()
    rk5 = RankTuple(4, {(1, 1): 5, (1, 2): 4, (1, 3): 4, (1, 4): 4,
                        (2, 2): 5, (2, 3): 5, (2, 4): 4,
                        (3, 3): 5, (3, 4): 4, (4, 4): 5})
    assert rk5.geq_r1()


def test_single_peak():
    assert single_peak_paths(1) == [()]
    assert len(single_peak_paths(3)) == 4
    assert len(single_peak_paths(4)) == 8
    assert not has_single_peak(4, (1, 0, 1))
    for n in range(1, 9):
        peaks = single_peak_paths(n)
        assert len(peaks) == 2 ** (n - 1)
        assert all(is_motzkin_path(n, x) for x in peaks)


def test_single_peak_matches_the_search_over_peak_positions():
    # all of P(n), the Motzkin paths beyond it, and tuples that are no
    # path: wrong length, a negative or non-int entry
    cases = [(n, x) for n in range(1, 9) for x in ptuples(n)]
    cases += [(n, x) for n in range(9, 11) for x in motzkin_paths(n)]
    cases += [(1, (0,)), (3, (1,)), (3, (1, 1, 0)), (3, (-1, 0)),
              (4, (1, -1, 0)), (3, (1.0, 1)), (4, (1, 2, 0)),
              (5, (0, 2, 1, 0))]
    for n, x in cases:
        assert has_single_peak(n, x) == oracles.has_single_peak(n, x), (n, x)


def test_pbw_locus():
    for n in range(2, 9):
        locus = pbw_locus_ranks(n)
        assert len(locus) == 2 ** (n - 1)
        assert len(set(locus)) == len(locus)
        for rt in locus:
            assert all(rt[(k, k + 1)] in (n, n + 1) for k in range(1, n))
    # the eight n=4 tuples, by off-diagonal
    locus4 = {rt.off_diagonal() for rt in pbw_locus_ranks(4)}
    assert locus4 == {
        (4, 3, 2, 4, 3, 4), (4, 4, 3, 5, 4, 4), (4, 3, 3, 4, 4, 5),
        (4, 4, 4, 5, 5, 5), (5, 4, 3, 4, 3, 4), (5, 4, 4, 4, 4, 5),
        (5, 5, 4, 5, 4, 4), (5, 5, 5, 5, 5, 5)}
    # at n=3 the locus is the whole support set
    locus3 = {rt.off_diagonal() for rt in pbw_locus_ranks(3)}
    assert locus3 == {(3, 2, 3), (3, 3, 4), (4, 3, 3), (4, 4, 4)}


def test_single_peak_pbw_bijection():
    for n in range(1, 9):
        images = [rank_from_motzkin(n, x) for x in single_peak_paths(n)]
        assert len(set(images)) == len(images)
        assert set(images) == set(pbw_locus_ranks(n))


def test_rank_tuple_validation():
    with pytest.raises(ValueError):
        RankTuple(2, {(1, 1): 1, (2, 2): 1})  # missing (1, 2)
    with pytest.raises(ValueError):
        RankTuple(2, {(1, 1): 1, (1, 2): 1, (2, 2): 1, (2, 1): 1})
    with pytest.raises(ValueError):
        Multisegment(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        Multisegment(2, {(1, 2): -1})


def test_public_refusals():
    with pytest.raises(ValueError,
                       match="^n must be a positive integer, got 0$"):
        ptuples(0)
    for count in (motzkin_number, bell_number):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            count(-1)
    with pytest.raises(ValueError, match=re.escape(
            "entry (1, 2) must be a nonnegative integer, got -1")):
        RankTuple(2, {(1, 1): 1, (1, 2): -1, (2, 2): 1})
    with pytest.raises(ValueError, match=re.escape(
            "expected a tuple of length 2, got (1,)")):
        path_to_multisegment(3, (1,))
    with pytest.raises(ValueError,
                       match=re.escape("negative entry in (-1, 0)")):
        path_to_multisegment(3, (-1, 0))


def test_path_to_multisegment_names_the_tuple():
    # the entries are checked before any arithmetic, so the refusal names the
    # caller's tuple, not a multiplicity computed from it
    for bad in [(True, False), (1, 0.5), (0, "1")]:
        with pytest.raises(ValueError, match=re.escape(
                f"non-integer entry in {bad!r}")):
            path_to_multisegment(3, bad)
    with pytest.raises(ValueError,
                       match="^n must be a positive integer, got 0$"):
        path_to_multisegment(0, ())


def test_bools_are_refused():
    # isinstance(True, int) holds, but a bool would be stored and printed
    # as True or False, which json.dumps writes as true or false
    for flag in (True, False):
        with pytest.raises(ValueError, match=re.escape(
                f"n must be a positive integer, got {flag!r}")):
            ptuples(flag)
        with pytest.raises(ValueError, match=re.escape(
                f"entry (1, 2) must be a nonnegative integer, got {flag!r}")):
            RankTuple(2, {(1, 1): 3, (1, 2): flag, (2, 2): 3})
        with pytest.raises(ValueError, match=re.escape(
                f"invalid interval ({flag!r}, 2) for n=2")):
            Multisegment(2, {(flag, 2): 1})
        with pytest.raises(ValueError, match=re.escape(
                f"invalid interval (1, {flag!r}) for n=2")):
            Multisegment(2, [((1, flag), 1)])
        with pytest.raises(ValueError, match=re.escape(
                f"multiplicity of (1, 2) must be a nonnegative integer, "
                f"got {flag!r}")):
            Multisegment(2, {(1, 2): flag})
    assert RankTuple(2, {(1, 1): 3, (1, 2): 1, (2, 2): 3}).to_pairs() == [
        [1, 1, 3], [1, 2, 1], [2, 2, 3]]
    assert Multisegment(2, {(1, 2): 1}).to_pairs() == [[1, 2, 1]]


def _check_against_entries(rt, entries):
    """Every read of a rank tuple against its definition on the plain dict
    {(i, j): r_ij}, built in any key order."""
    n = rt.n
    keys = sorted(entries)
    assert rt.r == entries and entries == rt.r
    assert list(rt.r) == keys
    for i in range(n + 2):
        for j in range(n + 2):
            assert rt.value(i, j) == entries.get((i, j), 0), (i, j)
            if (i, j) in entries:
                assert rt[(i, j)] == entries[(i, j)]
            else:
                with pytest.raises(KeyError):
                    rt[(i, j)]
    assert rt.values == tuple(entries[k] for k in keys)
    assert rt.off_diagonal() == tuple(entries[(i, j)] for (i, j) in keys
                                      if i != j)
    assert rt.to_pairs() == [[i, j, entries[(i, j)]] for (i, j) in keys]
    assert rt.hat().r == {(i, j): entries[(n + 1 - j, n + 1 - i)]
                          for (i, j) in keys}
    assert rt.geq_r1() == all(v >= n + 1 + i - j
                              for (i, j), v in entries.items())
    get = entries.get
    mult = {}
    for i, j in keys:
        m = (get((i, j), 0) - get((i - 1, j), 0) - get((i, j + 1), 0)
             + get((i - 1, j + 1), 0))
        assert m >= 0
        if m:
            mult[(i, j)] = m
    assert rt.to_multisegment().mult == mult
    checked = RankTuple(n, dict(reversed(list(entries.items()))))
    assert rt == checked and checked == rt
    assert hash(rt) == hash(checked) == hash((n, tuple(entries[k]
                                                       for k in keys)))


def _check_order(tuples, entries):
    by_dict = sorted(range(len(tuples)),
                     key=lambda t: [entries[t][k] for k in sorted(entries[t])])
    assert sorted(range(len(tuples)), key=lambda t: tuples[t]) == by_dict


def test_rank_tuple_reads_match_dict_definitions():
    # the value-tuple storage against the {(i, j): r_ij} definitions, on
    # every Motzkin path for n <= 8 and every dual rank tuple for n <= 6
    for n in range(1, 9):
        paths = motzkin_paths(n)
        tuples = [rank_from_motzkin(n, x) for x in paths]
        entries = [oracles.rank_entries_from_motzkin(n, x) for x in paths]
        for rt, d in zip(tuples, entries):
            _check_against_entries(rt, d)
        _check_order(tuples, entries)
    for n in range(1, 7):
        keys = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        ys = ptuples(n)
        tuples = [dual_rank_tuple(n, y) for y in ys]
        entries = [{(i, j): oracles.kz_rank_simple(n, y, i, j)
                    for (i, j) in reversed(keys)} for y in ys]
        for rt, d in zip(tuples, entries):
            _check_against_entries(rt, d)
        _check_order(tuples, entries)


def test_rank_tuples_are_immutable():
    rt = rank_from_motzkin(4, (1, 1, 0))
    before = rt.values
    with pytest.raises(TypeError):
        rt.r[(1, 2)] = 0
    for name in ("n", "values", "r"):
        with pytest.raises(AttributeError):
            setattr(rt, name, 0)
        with pytest.raises(AttributeError):
            delattr(rt, name)
    assert rt.values == before
    for copied in (copy.copy(rt), copy.deepcopy(rt),
                   pickle.loads(pickle.dumps(rt))):
        assert type(copied) is RankTuple
        assert copied == rt and copied.values == before
