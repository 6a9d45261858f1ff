"""Laurent ring arithmetic, quantum symbols, and the exactness audit."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from lindeg.laurent import (
    MINUS_INFINITY,
    ONE,
    ZERO,
    LaurentPoly,
    qbinom,
    qfact,
    qint,
    v_power,
)

V = LaurentPoly({1: 1})
VINV = LaurentPoly({-1: 1})


def gaussian_binomial_oracle(k, m):
    """Independent subset-sum construction of the quantum binomial:
    v^(-m(k-m)) times the generating function of m-subsets of {0..k-1}
    by size above the minimal one, in q = v^2."""
    terms = {}
    base = m * (m - 1) // 2
    for subset in combinations(range(k), m):
        e = 2 * (sum(subset) - base) - m * (k - m)
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(terms)


def random_poly(rng, max_terms=5, max_exp=6, max_coeff=9):
    n_terms = rng.randint(0, max_terms)
    return LaurentPoly(
        {rng.randint(-max_exp, max_exp): rng.randint(-max_coeff, max_coeff)
         for _ in range(n_terms)})


def test_add_cancellation():
    assert (V + VINV) + (-VINV) == V
    assert ZERO + (V + 3) == V + 3
    assert (V - VINV) + (VINV - V) == ZERO
    assert not (V - V)


def test_mul_expansion():
    two = V + VINV
    assert two * two == LaurentPoly({2: 1, 0: 2, -2: 1})
    p = LaurentPoly({5: 3, -2: 1, 0: -4})
    assert p * ONE == p
    # [3] * [2] is the quantum factorial of 3, expanded by hand
    assert qint(3) * qint(2) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})


def test_bar():
    p = LaurentPoly({3: 1, -1: 2})
    assert p.bar() == LaurentPoly({-3: 1, 1: 2})
    sym = LaurentPoly({2: 5, 0: -1, -2: 5})
    assert sym.bar() == sym
    rng = random.Random(7)
    for _ in range(50):
        q = random_poly(rng)
        assert q.bar().bar() == q


def test_bar_is_ring_hom():
    rng = random.Random(11)
    for _ in range(50):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_ring_axioms_randomized():
    rng = random.Random(13)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_qint():
    assert qint(0) == ZERO
    assert qint(2) == V + VINV
    assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_qfact():
    assert qfact(0) == ONE
    assert qfact(2) == V + VINV
    assert qfact(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})


def test_qbinom_values():
    assert qbinom(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert qbinom(7, 0) == ONE
    assert qbinom(5, 5) == ONE
    assert qbinom(2, 3) == ZERO
    assert qbinom(3, -1) == ZERO


@pytest.mark.parametrize("k", range(0, 13))
def test_qbinom_against_subset_oracle(k):
    for m in range(k + 1):
        assert qbinom(k, m) == gaussian_binomial_oracle(k, m), (k, m)


def test_qbinom_symmetry_and_pascal_specialization():
    for k in range(0, 36):
        for m in range(k + 1):
            b = qbinom(k, m)
            assert b == qbinom(k, k - m)
            assert b == b.bar()
            assert b.at_one() == math.comb(k, m)


def test_qfact_palindromic():
    for k in range(0, 25):
        f = qfact(k)
        assert f == f.bar()
        assert f.at_one() == math.factorial(k)


def test_qbinom_exactness_audit_up_to_60():
    # every quantum binomial in the range is produced by exact divisions
    # that raise on any nonzero remainder, so completing the sweep is the
    # audit
    for k in range(61):
        for m in range(k + 1):
            qbinom(k, m)
    assert qbinom(60, 30).at_one() == math.comb(60, 30)


def test_negative_part():
    p = LaurentPoly({3: 1, -1: -1, -3: 2})
    assert p.negative_part() == LaurentPoly({-1: -1, -3: 2})
    assert LaurentPoly({0: 5}).negative_part() == ZERO
    # antisymmetrized square of [3]: the solver input of the smallest
    # nontrivial triangular step, split by hand
    g = (VINV - V) * qint(3) * qint(3)
    assert g == LaurentPoly({5: -1, 3: -1, 1: -1, -1: 1, -3: 1, -5: 1})
    assert g.negative_part() == LaurentPoly({-1: 1, -3: 1, -5: 1})


def test_degree():
    assert LaurentPoly({3: 1, -1: 2}).degree() == 3
    assert ZERO.degree() == MINUS_INFINITY
    assert qfact(3).degree() == 3
    assert LaurentPoly({-4: 2}).degree() == -4


def test_exact_div():
    assert (qint(3) * qint(2)).exact_div(qint(2)) == qint(3)
    with pytest.raises(ValueError):
        qint(5).exact_div(qint(2))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)
    assert ZERO.exact_div(qint(2)) == ZERO
    # non-monic divisor, exact
    a = LaurentPoly({2: 2, 1: 3, 0: 1})   # (2v + 1)(v + 1)
    assert a.exact_div(LaurentPoly({1: 2, 0: 1})) == V + 1
    # mixed-parity operands
    b = LaurentPoly({1: 1, 0: 1}) * LaurentPoly({2: 1, -2: 1})
    assert b.exact_div(LaurentPoly({1: 1, 0: 1})) == LaurentPoly({2: 1, -2: 1})
    # both operands on stride 3, and strides 3 and 1 mixed
    assert (LaurentPoly({6: 1, -6: -1}).exact_div(LaurentPoly({3: 1, -3: -1}))
            == LaurentPoly({3: 1, -3: 1}))
    assert (LaurentPoly({3: 1, 0: 1}).exact_div(V + 1)
            == LaurentPoly({2: 1, 1: -1, 0: 1}))
    assert (LaurentPoly({4: 2, -5: -2}).exact_div(LaurentPoly({3: 1, -6: -1}))
            == LaurentPoly({1: 2}))
    with pytest.raises(ValueError):
        LaurentPoly({6: 1, 0: 1}).exact_div(LaurentPoly({3: 1, 0: -1}))
    with pytest.raises(ValueError):
        LaurentPoly({3: 1, 0: 1}).exact_div(LaurentPoly({2: 1, 0: 1}))


def test_serialization_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        p = random_poly(rng, max_coeff=10**25)
        pairs = p.to_pairs()
        assert pairs == sorted(pairs)
        assert all(isinstance(c, str) for _, c in pairs)
        assert LaurentPoly.from_pairs(pairs) == p


def test_from_pairs_reads_ints_and_decimal_strings_only():
    # what to_pairs writes comes back; floats and bools are refused, not
    # truncated or read as 0 and 1, and so is any other string
    for p in (ZERO, ONE, -V, v_power(-5) * qbinom(7, 3) - (1 << 70) * VINV):
        assert LaurentPoly.from_pairs(p.to_pairs()) == p
    assert LaurentPoly.from_pairs([["-2", 3], [0, "-0"]]) == LaurentPoly(
        {-2: 3})
    for bad in (2.7, 1.0, True, False, None, Fraction(1)):
        message = re.escape(f"expected an int or a decimal string, got "
                            f"{bad!r}")
        with pytest.raises(TypeError, match=message):
            LaurentPoly.from_pairs([[0, bad]])
        with pytest.raises(TypeError, match=message):
            LaurentPoly.from_pairs([[bad, "1"]])
    for bad in ("", "-", "+1", " 1", "1 ", "1.0", "1_000", "--1", "0x1",
                "\u0663"):
        message = re.escape(f"not a decimal integer: {bad!r}")
        with pytest.raises(ValueError, match=message):
            LaurentPoly.from_pairs([[0, bad]])
        with pytest.raises(ValueError, match=message):
            LaurentPoly.from_pairs([[bad, "1"]])


def test_exact_div_refuses_what_is_not_a_polynomial():
    # as the ring operations refuse such operands, with the value named
    for bad in (2.5, True, None, "2", Fraction(2)):
        with pytest.raises(TypeError, match=re.escape(f"by {bad!r}")):
            V.exact_div(bad)
    assert (2 * V).exact_div(2) == V and V.exact_div(V) == ONE


def test_int_interop_and_hash():
    assert ONE == 1
    assert LaurentPoly({0: -4}) == -4
    assert V != 1
    assert hash(LaurentPoly({0: 9})) == hash(9)
    assert 1 - qint(2) * 0 == ONE
    assert (2 * V) * 3 == LaurentPoly({1: 6})


def test_coefficients_must_be_ints():
    # refused, not truncated or parsed: int() reads 2.7 as 2 and 0.5 as 0
    for c in (2.7, 0.5, Fraction(3, 2), "5", None):
        with pytest.raises(TypeError, match="coefficient must be int"):
            LaurentPoly({0: c})
        with pytest.raises(TypeError, match="coefficient must be int"):
            LaurentPoly([(1, c)])
    # from_pairs parses its decimal strings explicitly
    assert LaurentPoly.from_pairs([[0, "5"], [2, "-3"]]) == LaurentPoly(
        {0: 5, 2: -3})


def test_bool_coefficients_are_refused():
    # isinstance(True, int) holds, but a bool is no coefficient
    for c in (True, False):
        message = re.escape(f"coefficient must be int, got {c!r}")
        with pytest.raises(TypeError, match=message):
            LaurentPoly({0: c})
        with pytest.raises(TypeError, match=message):
            LaurentPoly([(2, 1), (1, c)])


def test_exponents_must_be_ints():
    # isinstance(True, int) holds, but a bool would be stored as its key
    for e in (True, False, 0.5, "1", None):
        message = re.escape(f"exponent must be int, got {e!r}")
        with pytest.raises(TypeError, match=message):
            LaurentPoly({e: 1})
        with pytest.raises(TypeError, match=message):
            LaurentPoly([(e, 1)])
    # from_pairs parses its exponents explicitly
    assert LaurentPoly.from_pairs([["-2", "3"]]) == LaurentPoly({-2: 3})


def test_terms_that_cancel_leave_no_key():
    assert LaurentPoly([(1, 2), (-1, 1), (1, -2)])._terms == {-1: 1}
    assert LaurentPoly([(3, 1), (3, -1), (0, 0)])._terms == {}
    # sums and products that cancel
    assert (V + (-V))._terms == {}
    assert 0 not in ((V + VINV) * (V - VINV))._terms


def test_hash_matches_equality():
    assert hash(ZERO) == hash(LaurentPoly({2: 0})) == hash(0)
    built = LaurentPoly({1: 1, -1: 2})
    assert built == V + 2 * VINV and hash(built) == hash(V + 2 * VINV)


def test_quantum_symbols_refuse_negative_arguments():
    with pytest.raises(ValueError,
                       match="^quantum integers are defined for k >= 0$"):
        qint(-1)
    with pytest.raises(ValueError,
                       match="^quantum factorials are defined for k >= 0$"):
        qfact(-1)


def test_exact_div_refusals():
    # a dividend with fewer slots than the divisor, and a leading
    # coefficient that the divisor's does not divide
    for a, b in [(V, qint(3)), (LaurentPoly({1: 3}), LaurentPoly({0: 2}))]:
        with pytest.raises(ValueError,
                           match=re.escape(f"{b!r} does not divide {a!r}")):
            a.exact_div(b)


def test_power():
    assert (V + VINV) ** 0 == ONE
    assert (V + VINV) ** 2 == LaurentPoly({2: 1, 0: 2, -2: 1})
    with pytest.raises(ValueError):
        V ** -1


def test_power_agrees_with_evaluation():
    # evaluation at v = 3/2 is a ring homomorphism, so p^k evaluates to
    # p(3/2)^k; the explicit cube below pins the coefficients
    def at(p, v=Fraction(3, 2)):
        return sum(c * v ** e for e, c in p._terms.items())

    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng)
        k = rng.randint(0, 6)
        assert at(p ** k) == at(p) ** k
    assert (V - VINV) ** 3 == LaurentPoly({3: 1, 1: -3, -1: 3, -3: -1})
    assert ZERO ** 0 == ONE and ZERO ** 2 == ZERO
    for k in (-1, 1.0, "2", None):
        with pytest.raises(
                ValueError,
                match="^only nonnegative integer powers are defined$"):
            V ** k


def test_str_rendering():
    assert str(qfact(3)) == "v^3 + 2v + 2v^-1 + v^-3"
    assert str(ZERO) == "0"
    assert str(LaurentPoly({0: -3, 2: 1})) == "v^2 - 3"
    assert str(V) == "v"
