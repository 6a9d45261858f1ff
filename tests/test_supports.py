"""The two support pipelines, the report, and the counting table."""

import gc
from fractions import Fraction

import pytest

from lindeg import supports
from lindeg.combinatorics import (
    RankTuple,
    bell_number,
    motzkin_number,
    motzkin_paths,
    pbw_locus_ranks,
    ptuples,
    rank_from_motzkin,
)
from lindeg.expansion import canonical_coeffs
from lindeg.supports import (
    all_checks_pass,
    asymptotics_report,
    computed_supports,
    predicted_supports,
    ratio_string,
    verify_supports,
)

EXPECTED_CHECKS = {
    "set_equality", "per_element_motzkin", "pbw_in_supports",
    "single_peak_bijection", "filter_reduction", "hat_invariance",
    "support_count",
}


def off_diagonals(ranks):
    return [rt.off_diagonal() for rt in ranks]


def test_predicted_small():
    assert off_diagonals(predicted_supports(2)) == [(2,), (3,)]
    assert set(off_diagonals(predicted_supports(3))) == {
        (3, 2, 3), (3, 3, 4), (4, 3, 3), (4, 4, 4)}
    sup4 = set(off_diagonals(predicted_supports(4)))
    assert sup4 == {
        (4, 3, 2, 4, 3, 4), (4, 4, 3, 5, 4, 4), (4, 3, 3, 4, 4, 5),
        (4, 4, 4, 5, 4, 4), (4, 4, 4, 5, 5, 5), (5, 4, 3, 4, 3, 4),
        (5, 4, 4, 4, 4, 5), (5, 5, 4, 5, 4, 4), (5, 5, 5, 5, 5, 5)}
    assert len(sup4) == 9


def test_predicted_counts_and_invariance():
    for n in range(1, 11):
        sup = predicted_supports(n)
        assert len(sup) == motzkin_number(n)
        assert sup == sorted(sup, key=lambda r: r.values)
    for n in range(1, 9):
        sup = set(predicted_supports(n))
        assert {rt.hat() for rt in sup} == sup
        assert all(rt.geq_r1() for rt in sup)
        assert set(pbw_locus_ranks(n)) <= sup


def test_computed_equals_predicted():
    for n in range(1, 7):
        assert computed_supports(n) == predicted_supports(n), n


def test_verify_report():
    for n in range(1, 7):
        report = verify_supports(n)
        assert set(report) == {"n", "motzkin_count", "supports", "checks"}
        assert report["n"] == n
        assert report["motzkin_count"] == motzkin_number(n)
        assert len(report["supports"]) == motzkin_number(n)
        assert {c["name"] for c in report["checks"]} == EXPECTED_CHECKS
        assert all_checks_pass(report), (n, report["checks"])
        for c in report["checks"]:
            assert set(c) == {"name", "pass", "detail"}


def test_verify_computes_each_dual_rank_once(monkeypatch):
    n = 5
    calls = []
    dual = supports.dual_rank_tuple

    def counting(n, y):
        calls.append(y)
        return dual(n, y)

    monkeypatch.setattr(supports, "dual_rank_tuple", counting)
    supports._dual_ranks.cache_clear()
    try:
        assert all_checks_pass(verify_supports(n))
    finally:
        supports._dual_ranks.cache_clear()
    assert sorted(calls) == ptuples(n)


def test_filter_reduction_reads_next_neighbour_ranks(monkeypatch):
    # the check must still check: next-neighbour ranks that never fall
    # below n pass every parameter tuple, so the check fails
    monkeypatch.setattr(supports, "_next_neighbor_rank",
                        lambda n, xe, i: n + 1)
    checks = {c["name"]: c["pass"] for c in verify_supports(5)["checks"]}
    assert checks == {name: name != "filter_reduction"
                      for name in EXPECTED_CHECKS}


def test_predicted_equals_per_path_images():
    # values and .r key order of the sorted rank_from_motzkin images
    for n in range(1, 13):
        images = sorted({rank_from_motzkin(n, x) for x in motzkin_paths(n)},
                        key=lambda r: r.values)
        predicted = predicted_supports(n)
        assert all(type(rt) is RankTuple and rt.n == n for rt in predicted)
        assert ([list(rt.r.items()) for rt in predicted]
                == [list(rt.r.items()) for rt in images]), n


def test_predicted_makes_no_path_check(monkeypatch):
    # the paths come from motzkin_paths, so checking them again is waste
    from lindeg import combinatorics

    calls = []
    check = combinatorics.is_motzkin_path

    def counting(n, x):
        calls.append(x)
        return check(n, x)

    monkeypatch.setattr(combinatorics, "is_motzkin_path", counting)
    assert len(predicted_supports(8)) == 323
    assert calls == []


def test_predicted_leaves_no_cyclic_garbage():
    # a memo held by a reference cycle lives until a full collection, so
    # the sweep itself runs with gc disabled
    gc.collect()
    gc.disable()
    try:
        predicted_supports(8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_expansion_leaves_no_cyclic_garbage():
    # W's table, held by a reference cycle, would outlive the Z solve that
    # takes it
    canonical_coeffs.cache_clear()
    gc.collect()
    gc.disable()
    try:
        canonical_coeffs(6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reports_are_fresh_lists_each_call():
    # a caller's change to a returned list never reaches a later call
    for report in (predicted_supports, asymptotics_report):
        expected = list(report(5))
        report(5).append("junk")
        report(5).clear()
        assert report(5) == expected, report
    asymptotics_report(3).append("junk")
    assert asymptotics_report(4) == asymptotics_report(5)[:4]


def test_asymptotics_rows():
    rows = asymptotics_report(5)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
    assert rows[1] == (2, 2, 2, "1.0")
    assert rows[3] == (4, 9, 15, "0.6")
    assert rows[4] == (5, 21, 52, "0.40384615384615384615")


def test_asymptotics_equals_per_k_counts():
    # the table reads both sequences from one pass; it must equal the
    # single-value functions at every k
    assert asymptotics_report(60) == [
        (k, motzkin_number(k), bell_number(k),
         ratio_string(motzkin_number(k), bell_number(k)))
        for k in range(1, 61)]


def test_ratio_monotone_decay():
    rows = asymptotics_report(30)
    ratios = [Fraction(m, b) for _, m, b, _ in rows]
    for i in range(3, 29):  # n = 4 .. 29 against the next row
        assert ratios[i] > ratios[i + 1], rows[i]
    assert ratios[29] < Fraction(1, 10 ** 6)
    assert motzkin_number(30) * 10 ** 6 < bell_number(30)


def test_ratio_string_rendering():
    assert ratio_string(1, 1) == "1.0"
    assert ratio_string(9, 15) == "0.6"
    assert ratio_string(21, 52) == "0.40384615384615384615"
    assert "E-" in ratio_string(motzkin_number(30), bell_number(30))


def test_failed_checks_name_the_differing_tuples(monkeypatch):
    from lindeg.combinatorics import motzkin_paths, rank_from_motzkin

    dropped = (1, 1, 0)
    real = dict(supports.canonical_coeffs(4))
    assert dropped in real
    del real[dropped]
    monkeypatch.setattr(supports, "canonical_coeffs", lambda n: real)
    report = verify_supports(4)
    checks = {c["name"]: c for c in report["checks"]}
    rank = supports.tup(rank_from_motzkin(4, dropped).off_diagonal())
    assert dropped in motzkin_paths(4)
    assert not checks["set_equality"]["pass"]
    assert checks["set_equality"]["detail"] == (
        "algebraic pipeline found 8 tuples, combinatorial pipeline 9; "
        f"only combinatorial: {rank}")
    assert not checks["per_element_motzkin"]["pass"]
    assert checks["per_element_motzkin"]["detail"] == (
        "8 surviving parameter tuples vs 9 Motzkin paths; "
        "only Motzkin: (1, 1, 0)")
    monkeypatch.setattr(supports, "canonical_coeffs", lambda n: {})
    checks = {c["name"]: c for c in verify_supports(4)["checks"]}
    assert checks["per_element_motzkin"]["detail"] == (
        "0 surviving parameter tuples vs 9 Motzkin paths; only Motzkin: "
        "(0, 0, 0), (0, 0, 1), (0, 1, 0) and 6 more")


def test_cached_rank_tuples_cannot_be_corrupted():
    # computed_supports hands out the tuples cached in _dual_ranks; with a
    # plain dict behind .r this assignment broke three checks of a later
    # verify_supports(4)
    with pytest.raises(TypeError):
        computed_supports(4)[0].r[(1, 2)] = 0
    assert all_checks_pass(verify_supports(4))
