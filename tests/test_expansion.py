"""PBW expansion, bar transition, triangular solve, canonical coefficients."""

import math
import random
import sys
import weakref
from operator import sub

import oracles
import pytest
from oracles import (
    below,
    between,
    pbw_coeff_degree,
    pbw_coeff_degree_gap,
    rank2_straighten,
    staircase_exponents,
    two_row_pbw_expansion,
)

from lindeg import expansion
from lindeg.combinatorics import (
    leq,
    motzkin_paths,
    padded,
    ptuples,
    upper_bounds,
)
from lindeg.expansion import (
    bar_transition_coeff,
    bar_transition_matrix,
    canonical_coeffs,
    canonical_transition_matrix,
    pbw_coeff,
)
from lindeg.laurent import ONE, ZERO, LaurentPoly, qbinom, qfact, qint, v_power

VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})


def test_rank2_straighten():
    assert rank2_straighten(0, 1, 1) == {0: v_power(-1), 1: ONE}
    assert rank2_straighten(3, 0, 2) == {0: qbinom(5, 3)}
    assert rank2_straighten(1, 1, 1) == {0: v_power(-1) * qint(2), 1: ONE}


def test_two_row_small():
    out = two_row_pbw_expansion((1, 2), (2, 1))
    assert out == {(1,): ONE, (0,): v_power(-1) * qint(3) * qint(3)}
    out = two_row_pbw_expansion((2, 3), (0, 0))
    assert out == {(0,): ONE}
    out = two_row_pbw_expansion((0, 0), (4, 7))
    assert out == {(0,): ONE}


def test_pbw_coeff_values():
    assert pbw_coeff(2, (1,)) == ONE
    assert pbw_coeff(2, (0,)) == v_power(-1) * qint(3) * qint(3)
    assert pbw_coeff(4, (1, 2, 1)) == ONE


def test_pbw_coeff_matches_two_row():
    for n in range(1, 6):
        e, f = staircase_exponents(n)
        table = two_row_pbw_expansion(e, f)
        for y in ptuples(n):
            assert pbw_coeff(n, y) == table.get(y, ZERO), (n, y)


def test_staircase_exponents():
    assert staircase_exponents(4) == ((1, 2, 3, 4), (4, 3, 2, 1))


def test_bar_transition_values():
    assert bar_transition_coeff(3, (1, 0), (1, 0)) == ONE
    w = bar_transition_coeff(2, (1,), (0,))
    assert w == VINV_MINUS_V * qint(3) * qint(3)
    assert bar_transition_coeff(3, (1, 0), (0, 1)) == ZERO
    # one mixed step at n=3, multiplied out by hand from the closed form
    assert (bar_transition_coeff(3, (1, 1), (1, 0))
            == VINV_MINUS_V * qint(3) * qint(4))


def test_bar_matrix_involutive():
    # the matrix of the bar involution squares to the identity
    for n in range(1, 6):
        w = bar_transition_matrix(n)
        pset = ptuples(n)
        for x in pset:
            for y in pset:
                if not leq(y, x):
                    continue
                acc = ZERO
                for m in between(y, x):
                    wxm = w.get((x, m))
                    wmy = w.get((m, y))
                    if wxm is not None and wmy is not None:
                        acc = acc + wxm.bar() * wmy
                assert acc == (ONE if x == y else ZERO), (n, x, y)


def test_canonical_transition_diagonal_and_negativity():
    for n in range(1, 6):
        z = canonical_transition_matrix(n)
        for x in ptuples(n):
            assert z[(x, x)] == ONE
        for (x, y), entry in z.items():
            if x != y:
                assert entry.degree() < 0, (n, x, y)
                assert leq(y, x)


def test_canonical_transition_n2():
    z = canonical_transition_matrix(2)
    assert z[((1,), (0,))] == LaurentPoly({-1: 1, -3: 1, -5: 1})


def test_bar_invariance_identity():
    # coordinates of bar-invariance: each column of the canonical matrix
    # reproduces itself through the bar matrix
    for n in range(1, 6):
        w = bar_transition_matrix(n)
        z = canonical_transition_matrix(n)
        for x in ptuples(n):
            for s in below(x):
                lhs = z.get((x, s), ZERO)
                acc = ZERO
                for m in between(s, x):
                    zxm = z.get((x, m))
                    wms = w.get((m, s))
                    if zxm is not None and wms is not None:
                        acc = acc + zxm.bar() * wms
                assert lhs == acc, (n, x, s)


W_LABEL = ("W", 2, ((1,), (0,)))


def test_solver_rejects_broken_bar_matrix(monkeypatch):
    def corrupted(n):
        w = bar_transition_matrix(n)
        entry = ONE + v_power(2)  # not bar-antisymmetrizable
        w._table[(0,)][(1,)] = expansion._pack(entry._terms, w._width,
                                               W_LABEL)
        return w

    monkeypatch.setattr(expansion, "bar_transition_matrix", corrupted)
    with pytest.raises(ArithmeticError):
        expansion.canonical_transition_matrix(2)


@pytest.mark.parametrize("broken", [v_power(-3), VINV_MINUS_V + v_power(3),
                                    v_power(1), v_power(2) + v_power(4)])
def test_solver_rejects_rhs_beyond_its_mirror(broken):
    # antisymmetric where the rhs overlaps its mirror image, nonzero beyond;
    # or starting at or above v^0, where there is no window [lo, -lo]
    w = bar_transition_matrix(2)
    w._table[(0,)][(1,)] = expansion._pack(broken._terms, w._width, W_LABEL)
    with pytest.raises(ArithmeticError, match="bar-antisymmetry failed"):
        expansion._canonical_matrix(2, w)


def test_solver_rejects_rhs_above_v0_with_zero_top_slots():
    # v^2 - v^6 on the slots of v^2 .. v^8: past the first slot it looks
    # antisymmetric, and a window read with a negative end would accept it
    w = bar_transition_matrix(2)
    w._table[(0,)][(1,)] = expansion._pack_slots([1, 0, -1, 0], 2, w._width,
                                                 W_LABEL)
    with pytest.raises(ArithmeticError, match="bar-antisymmetry failed"):
        expansion._canonical_matrix(2, w)


@pytest.mark.parametrize("broken", [2 * VINV_MINUS_V, -VINV_MINUS_V, ZERO])
def test_solver_rejects_rhs_not_starting_with_one(broken):
    # bar-antisymmetric, but its lowest slot is not 1; the zero rhs is
    # packed on the slots of v^-1 and v, as a sum whose terms cancel
    w = bar_transition_matrix(2)
    w._table[(0,)][(1,)] = (
        expansion._pack(broken._terms, w._width, W_LABEL) if broken
        else (0, -1, 1, 0))
    with pytest.raises(ArithmeticError, match="bar-antisymmetry failed"):
        expansion._canonical_matrix(2, w)


def with_top_slot(w, x, y, change):
    """The W view w with the top slot of W(x, y) changed by change, its
    mirror left as it is."""
    value, lo, hi, _ = w._table[y][x]
    slots = list(expansion._decode(value, lo, hi, w._width, LABEL))
    slots[-1] += change
    w._table[y][x] = expansion._pack_slots(slots, lo, w._width, LABEL)
    return w


@pytest.mark.parametrize("change", [-1, 1, 2])
def test_solver_rejects_rhs_broken_above_its_lower_half(change):
    # W((1), (0)) = v^-5 + v^-3 + v^-1 - v - v^3 - v^5 at n = 2 is the whole
    # rhs of its box: starting with 1 v^L, its lower half z intact, it must
    # still be z - bar(z) on the upper half, v^5 included
    w = with_top_slot(bar_transition_matrix(2), (1,), (0,), change)
    assert min(w[((1,), (0,))]._terms) == -5
    with pytest.raises(ArithmeticError,
                       match=r"bar-antisymmetry failed solving entry "
                             r"\(\(1,\), \(0,\)\) at n=2"):
        expansion._canonical_matrix(2, w)


@pytest.mark.parametrize("change", [-1, 1])
def test_solver_rejects_an_interior_term_broken_at_its_top(change):
    # at n = 3, W((1, 0), (0, 0)) is read only inside the box of
    # Z((1, 1), (0, 0)): the column (1, 0) is filled from its mirror
    # (0, 1).  Its top slot lands in the upper half of that box's rhs
    w = with_top_slot(bar_transition_matrix(3), (1, 0), (0, 0), change)
    with pytest.raises(ArithmeticError,
                       match=r"bar-antisymmetry failed solving entry "
                             r"\(\(1, 1\), \(0, 0\)\) at n=3"):
        expansion._canonical_matrix(3, w)


def test_canonical_coeffs_n2():
    mu = canonical_coeffs(2)
    assert mu == {(1,): ONE, (0,): qfact(3)}


def test_canonical_coeffs_n3():
    mu = canonical_coeffs(3)
    assert mu == {(1, 1): qfact(2), (1, 0): qfact(3),
                  (0, 1): qfact(3), (0, 0): qfact(4)}


def test_canonical_coeffs_n4():
    mu = canonical_coeffs(4)
    expected = {
        (1, 2, 1): ONE,
        (1, 2, 0): qfact(2),
        (1, 1, 1): qfact(3),
        (1, 1, 0): qint(3) * qint(3) * qint(2),
        (1, 0, 1): qbinom(4, 2),
        (1, 0, 0): qint(4) * qint(3) * qint(3),
        (0, 2, 1): qfact(2),
        (0, 2, 0): qfact(2) * qfact(2),
        (0, 1, 1): qint(3) * qint(3) * qint(2),
        (0, 1, 0): qint(4) * qint(3) * qint(2) * qint(2),
        (0, 0, 1): qint(4) * qint(3) * qint(3),
        (0, 0, 0): qfact(5),
    }
    assert mu == expected


def test_canonical_coeffs_top_key():
    for n in range(1, 7):
        top = upper_bounds(n)
        assert canonical_coeffs(n)[top] == pbw_coeff(n, top)


def test_canonical_coeffs_nonzero_on_motzkin():
    for n in range(1, 7):
        mu = canonical_coeffs(n)
        for x in motzkin_paths(n):
            assert x in mu, (n, x)


def test_reconstruction():
    # multiplying the canonical coefficients back through the transition
    # matrix must reproduce every PBW coefficient exactly
    for n in range(1, 6):
        mu = canonical_coeffs(n)
        z = canonical_transition_matrix(n)
        bounds = upper_bounds(n)
        for y in ptuples(n):
            acc = ZERO
            for x in between(y, bounds):
                mx = mu.get(x)
                zxy = z.get((x, y))
                if mx is not None and zxy is not None:
                    acc = acc + mx * zxy
            assert acc == pbw_coeff(n, y), (n, y)


def test_small_rank_coeffs_palindromic():
    # bar invariance and positivity of the canonical coefficients, n <= 6
    for n in range(1, 7):
        for y, c in canonical_coeffs(n).items():
            assert c == c.bar(), (n, y)
            assert min(c.coefficients_descending()) >= 0, (n, y)


def test_degree_values():
    assert pbw_coeff_degree(2, (1,)) == 0
    assert pbw_coeff_degree(2, (0,)) == 3
    assert pbw_coeff_degree(4, (1, 2, 1)) == 0


def test_degree_closed_form():
    for n in range(1, 7):
        degs = {y: pbw_coeff(n, y).degree() for y in ptuples(n)}
        for y in ptuples(n):
            assert pbw_coeff_degree(n, y) == degs[y], (n, y)


def test_degree_gap():
    assert pbw_coeff_degree_gap(2, (0,), (1,)) == 3
    for n in range(1, 7):
        pset = ptuples(n)
        for y in pset:
            dy = pbw_coeff_degree(n, y)
            for z in pset:
                assert (pbw_coeff_degree_gap(n, y, z)
                        == dy - pbw_coeff_degree(n, z))
    for n in range(1, 8):
        pset = ptuples(n)
        for y in motzkin_paths(n):
            ye = padded(n, y)
            for z in pset:
                if leq(y, z) and z != y:
                    # padded d = z - y: the first sum is half the sum of
                    # the squared steps of d, so at least 1 for d != 0, and
                    # a Motzkin path keeps each term of the second >= 0
                    d = tuple(map(sub, padded(n, z), ye))
                    gap = pbw_coeff_degree_gap(n, y, z)
                    assert gap == sum(
                        d[k] * (d[k] - d[k + 1])
                        + d[k] * (2 * ye[k] - ye[k - 1] - ye[k + 1] + 2)
                        for k in range(1, n)), (n, y, z)
                    assert gap >= 1, (n, y, z)


def test_mu_has_the_top_term_of_pbw():
    # proven for Motzkin y: every correction pbw(x) Z^-1(x, y), x > y, has
    # degree below deg pbw(y) (see test_degree_gap); for the other y it is
    # only observed
    for n in range(1, 7):
        for y, mu in canonical_coeffs(n).items():
            top = pbw_coeff(n, y).degree()
            assert pbw_coeff(n, y).coefficient(top) == 1, (n, y)
            assert (mu.degree(), mu.coefficient(top)) == (top, 1), (n, y)


# -- reversal symmetry ---------------------------------------------------------

def rev(t):
    return t[::-1]


def test_closed_forms_reversal_symmetric():
    for n in range(1, 7):
        for y in ptuples(n):
            assert pbw_coeff(n, y) == pbw_coeff(n, rev(y)), (n, y)
        # the oracle W is bar_transition_coeff on every pair y <= x
        for (x, y), w in oracles.bar_transition_matrix(n).items():
            assert bar_transition_coeff(n, rev(x), rev(y)) == w, (n, x, y)


def test_oracle_z_and_mu_reversal_symmetric():
    for n in range(1, 7):
        z = oracles.canonical_transition_matrix(n)
        assert {(rev(x), rev(y)) for x, y in z} == set(z)
        for (x, y), entry in z.items():
            assert z[(rev(x), rev(y))] == entry, (n, x, y)
        mu = oracles.canonical_coeffs(n)
        assert {rev(y): c for y, c in mu.items()} == mu


def test_mirrored_entries_are_shared():
    # the mirror path copies objects, and interning leaves one object per
    # distinct value
    n = 6
    w, z = bar_transition_matrix(n), canonical_transition_matrix(n)
    for matrix in (w, z):
        for (x, y), entry in matrix.items():
            assert matrix[(rev(x), rev(y))] is entry, (x, y)
        assert one_object_per_value(matrix)
    assert (len({id(e) for e in w.values()}),
            len({id(e) for e in z.values()})) == (500, 629)
    mu = canonical_coeffs(n)
    for y, c in mu.items():
        assert mu[rev(y)] is c, y


@pytest.mark.parametrize("n", range(1, 8))
def test_tables_share_their_key_objects(n):
    # a column x and its mirror rev x are keyed by one tuple object each in
    # every row: a tuple made per entry would be held once per entry
    w = bar_transition_matrix(n)
    z = expansion._canonical_matrix(n, bar_transition_matrix(n))
    for view in (w, z):
        keys = {id(x) for row in view._table.values() for x in row}
        assert len(keys) <= 2 * len(ptuples(n)), (view._stage, len(keys))


def test_cached_results_read_only():
    for cached, key in [(bar_transition_matrix, ((1,), (0,))),
                        (canonical_transition_matrix, ((1,), (0,))),
                        (canonical_coeffs, (0,))]:
        result = cached(2)
        with pytest.raises(TypeError):
            result[key] = ONE
        with pytest.raises(TypeError):
            del result[key]
        assert key in cached(2)


def test_pairs_closed_form():
    # W is nonzero on every comparable pair, so the closed form counts it
    for n in range(1, 7):
        assert expansion._pairs(n) == len(bar_transition_matrix(n)), n
        assert expansion._pairs(n) == sum(
            1 for x in ptuples(n) for _ in below(x)), n
    assert expansion._pairs(8) == 486_000
    assert expansion._pairs(9) == 7_290_000


def lowest_exponent(n, x, y):
    """L(x, y) of the module docstring: W(x, y) starts with 1 v^L(x, y)."""
    xe = padded(n, x)
    d = tuple(map(sub, xe, padded(n, y)))
    return -sum(dk * dk for dk in d) - sum(
        d[k] * d[k - 1] + (n + 1 - xe[k - 1] - xe[k]) * (d[k] + d[k - 1])
        for k in range(1, n + 1))


def test_w_and_z_start_with_their_lowest_term():
    for n in range(1, 7):
        for stage in (bar_transition_matrix, canonical_transition_matrix):
            for (x, y), entry in stage(n).items():
                lo = min(entry._terms)
                assert lo == lowest_exponent(n, x, y), (n, x, y)
                assert entry.coefficient(lo) == 1, (n, x, y)
                assert lo <= -1 or x == y, (n, x, y)


def test_lowest_exponent_is_additive():
    # with e = x - m and a_k from x, on every y <= m <= x:
    # L(m, y) - L(x, y) = sum e_k^2 + sum e_k e_{k-1} + sum a_k (e_k +
    # e_{k-1}) = -L(x, m), and L(x, y) = psi(x) - psi(y)
    for n in range(1, 7):
        def psi(t):
            te = padded(n, t)
            return sum(c * c + c * p - 2 * (n + 1) * c
                       for c, p in zip(te[1:], te))

        for x in ptuples(n):
            xe = padded(n, x)
            for m in below(x):
                e = tuple(map(sub, xe, padded(n, m)))
                gap = sum(ek * ek for ek in e) + sum(
                    e[k] * e[k - 1]
                    + (n + 1 - xe[k - 1] - xe[k]) * (e[k] + e[k - 1])
                    for k in range(1, n + 1))
                assert gap == -lowest_exponent(n, x, m) >= 0, (n, x, m)
                assert gap == psi(m) - psi(x), (n, x, m)
                for y in below(m):
                    assert (lowest_exponent(n, m, y)
                            - lowest_exponent(n, x, y)) == gap, (n, x, m, y)


def test_z_is_full():
    for n in range(1, 7):
        z = canonical_transition_matrix(n)
        assert len(z) == len(list(z)) == expansion._pairs(n), n


def test_no_zero_factor_bounds():
    # the two inequalities of the module docstring's proof, on every
    # adjacent pair of upper bounds, padded with 0 at both ends
    for n in range(1, 31):
        b = padded(n, upper_bounds(n))
        for k in range(1, n + 1):
            assert n + 1 - b[k - 1] - b[k] >= 2, (n, k)  # a_k of W
            assert b[k] <= k and b[k - 1] <= n + 1 - k, (n, k)  # pbw


def test_closed_forms_refuse_tuples_outside_the_parameter_set():
    for bad in [(-1, 0), (2, 0), (0, 2), (1,), (1, 1, 1), (0.0, 0)]:
        with pytest.raises(ValueError, match="not a parameter tuple"):
            pbw_coeff(3, bad)
        with pytest.raises(ValueError, match="not a parameter tuple"):
            bar_transition_coeff(3, (1, 1), bad)
        with pytest.raises(ValueError, match="not a parameter tuple"):
            bar_transition_coeff(3, bad, (0, 0))
    with pytest.raises(ValueError, match="not a parameter tuple"):
        bar_transition_coeff(3, (3, 1), (1, 1))


# -- locality of Z: run factors and local keys --------------------------------

def runs(x, y):
    """Maximal blocks (start, stop) where x and y differ."""
    out, start = [], None
    for k, (a, b) in enumerate(zip(x + (0,), y + (0,))):
        if a != b and start is None:
            start = k
        elif a == b and start is not None:
            out.append((start, k))
            start = None
    return out


def local_key(x, y):
    # the run, its two x-neighbours (0 past either end), and the smaller of
    # the key and its reversal
    (i, j), = runs(x, y)
    xe = (0,) + x + (0,)
    key = (xe[i], xe[j + 1], x[i:j], y[i:j])
    return min(key, (key[1], key[0], key[2][::-1], key[3][::-1]))


def comparable_pairs(n):
    for x in ptuples(n):
        for y in below(x):
            if y != x:
                yield x, y


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_z_is_local(n):
    z = oracles.canonical_transition_matrix(n)
    by_key = {}
    for x, y in comparable_pairs(n):
        entry = z.get((x, y), ZERO)
        blocks = runs(x, y)
        if len(blocks) > 1:
            # one factor per run: x with y's coordinates on that run
            product = ONE
            for i, j in blocks:
                product = product * z.get((x, x[:i] + y[i:j] + x[j:]), ZERO)
            assert entry == product, (n, x, y)
        else:
            assert by_key.setdefault(local_key(x, y), entry) == entry, (
                n, x, y)


def test_box_solves_one_per_local_key(monkeypatch):
    n = 6
    keys = {local_key(x, y) for x, y in comparable_pairs(n)
            if len(runs(x, y)) == 1}
    solved = []
    box_solve = expansion._box_solve

    def counting(m, x, y, *args):
        solved.append((m, x, y))
        return box_solve(m, x, y, *args)

    monkeypatch.setattr(expansion, "_box_solve", counting)
    z = expansion._canonical_matrix(n, bar_transition_matrix(n))
    assert z == oracles.canonical_transition_matrix(n)
    assert all(m == n for m, _, _ in solved)
    assert len(solved) == len(keys) == 441


def test_z_solve_decodes_once_per_box_solved_key(monkeypatch):
    # W is built before counting starts; the Z solve decodes only the box
    # sums, one per reversal-canonical one-run key, and none of its
    # multi-run products
    n = 6
    w = bar_transition_matrix(n)
    labels = []
    decode = expansion._decode

    def counting(value, lo, hi, width, label):
        labels.append(label)
        return decode(value, lo, hi, width, label)

    monkeypatch.setattr(expansion, "_decode", counting)
    expansion._canonical_matrix(n, w)
    assert all(stage == "Z" for stage, _, _ in labels)
    assert len(labels) == 441


def test_z_entries_are_packed_tight():
    # the multi-run products take the product of their factors' norms as
    # their norm, and their ends as tight: this holds because every entry
    # is tight, its norm the sum of the absolute values of its slots
    for n in range(1, 7):
        z = canonical_transition_matrix(n)
        for column in z._table.values():
            for value, lo, hi, norm in column.values():
                slots = expansion._decode(value, lo, hi, z._width, LABEL)
                assert norm == sum(map(abs, slots)), (n, value, lo)
                assert slots[0] and slots[-1], (n, value, lo)


@pytest.mark.parametrize("width", [32, 64])
def test_box_sum_shifts_are_the_per_term_offsets(monkeypatch, width):
    # each term bar Z(x, m) W(m, y) of a box sum is added shift bits above
    # the first pair W(x, y), shift stored with the (z, bar z) of Z(x, m),
    # box-solved or a multi-run product; it must be the offset of the
    # term's lowest exponent, read from the public views
    monkeypatch.setattr(expansion, "_START_WIDTH", width)
    box_solve = expansion._box_solve
    for n in range(2, 7):
        solves = []

        def recording(m, x, y, low, w_y, bars, slot_width):
            solves.append((x, y, bars, slot_width))
            return box_solve(m, x, y, low, w_y, bars, slot_width)

        monkeypatch.setattr(expansion, "_box_solve", recording)
        w = bar_transition_matrix(n)
        z = expansion._canonical_matrix(n, bar_transition_matrix(n))
        assert solves and z._width == width
        terms = 0
        for x, y, bars, slot_width in solves:
            assert slot_width == width
            first = min(w[(x, y)]._terms)
            for m in between(y, x):
                if m in (x, y):
                    continue
                offset = -z[(x, m)].degree() + min(w[(m, y)]._terms) - first
                assert offset >= 0 and offset % 2 == 0, (n, x, m, y)
                assert bars[m][2] == width * offset // 2, (n, x, m, y)
                terms += 1
    # the box-sum products of the n = 6 row of the ROADMAP table
    assert terms == 7_333


def test_w_refuses_an_entry_off_its_lowest_exponent(monkeypatch):
    # one packed piece of a local factor moved up by v^2 moves every entry
    # that uses it off v^L(x, y); the Z solve would then misalign its sums
    pack = expansion._pack
    shifted = []

    def shifting(terms, width, label):
        value, lo, hi, norm = pack(terms, width, label)
        if label[0] == "W factor" and not shifted:
            shifted.append(label)
            lo, hi = lo + 2, hi + 2
        return value, lo, hi, norm

    monkeypatch.setattr(expansion, "_pack", shifting)
    with pytest.raises(ArithmeticError,
                       match=r"W (factor|entry) .* at n=4") as refused:
        bar_transition_matrix(4)
    assert shifted and not isinstance(refused.value,
                                      expansion._SlotBoundError)


@pytest.mark.parametrize("width", [32, 64])
def test_packed_bar_factors_are_the_packed_products(width):
    # every local factor the W walk reads at n <= 6, g_k and for the last k
    # g_k g_n, packed from its packed pieces: the same value, ends and
    # tight norm as the packed LaurentPoly product
    for n in range(2, 7):
        pieces, keys = {}, set()
        for x in ptuples(n):
            xe = padded(n, x)
            for k in range(1, n):
                for dp in range(xe[k - 1] + 1):
                    for dk in range(xe[k] + 1):
                        keys.add((k == n - 1, xe[k - 1], xe[k], dp, dk))
        for key in sorted(keys):
            last, xp, xk, dp, dk = key
            g = expansion._bar_factor(n, xp, xk, dp, dk)
            if last:
                g = g * expansion._bar_factor(n, xk, 0, dk, 0)
            want = expansion._pack(g._terms, width, LABEL)
            got = expansion._packed_bar_factor(n, key, width, pieces)
            assert got == want, (n, key)


@pytest.mark.parametrize("n", range(1, 7))
def test_one_coordinate_z_closed_form(n):
    # the closed form reads no W, so it checks the Z solve independently
    z = canonical_transition_matrix(n)
    checked = 0
    for (x, y), entry in z.items():
        want = oracles.one_coordinate_z(n, x, y)
        if want is not None:
            assert entry == want, (n, x, y)
            checked += 1
    assert checked == [0, 1, 4, 24, 108, 648][n - 1]


# -- packed kernel against the dict-path oracles ------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_packed_stages_match_oracles(n):
    # equal dicts with equal key order, stage by stage
    stages = [
        (bar_transition_matrix, oracles.bar_transition_matrix),
        (canonical_transition_matrix, oracles.canonical_transition_matrix),
        (canonical_coeffs, oracles.canonical_coeffs),
    ]
    for packed, oracle in stages:
        got, want = packed(n), oracle(n)
        assert got == want, (n, packed.__name__)
        assert list(got) == list(want), (n, packed.__name__)


def test_verify_path_decodes_nothing(monkeypatch):
    # cold: W is built once, its packed table goes to the Z solve and Z's
    # to mu as they are, no entry is read through a view, and neither
    # view outlives the verify that made it
    from lindeg.supports import all_checks_pass, verify_supports
    builds = counting_bar_tables(monkeypatch)
    views, reads = [], []
    view = expansion._PackedView
    init, getitem = view.__init__, view.__getitem__

    def tracking(self, *args):
        init(self, *args)
        views.append((self._stage, weakref.ref(self)))

    def reading(self, key):
        reads.append(key)
        return getitem(self, key)

    monkeypatch.setattr(view, "__init__", tracking)
    monkeypatch.setattr(view, "__getitem__", reading)
    canonical_coeffs.cache_clear()
    assert all_checks_pass(verify_supports(6))
    assert builds == [(6, 32)] and reads == []
    assert [stage for stage, _ in views] == ["W", "Z"]
    assert [stage for stage, ref in views if ref() is not None] == []


def counting_bar_tables(monkeypatch):
    """Record (n, width) of every W build from here on."""
    builds = []
    bar_table = expansion._bar_table

    def counting(n, width):
        builds.append((n, width))
        return bar_table(n, width)

    monkeypatch.setattr(expansion, "_bar_table", counting)
    return builds


@pytest.mark.parametrize("n", range(1, 6))
def test_views_behave_as_read_only_dicts(n):
    stages = [(bar_transition_matrix(n), oracles.bar_transition_matrix(n)),
              (canonical_transition_matrix(n),
               oracles.canonical_transition_matrix(n))]
    # a pair with tuples of the wrong length, and for n >= 2 an inverted one
    absent = [((0,) * n, (0,) * n)]
    if n >= 2:
        absent.append(((0,) * (n - 1), upper_bounds(n)))
    for view, want in stages:
        assert len(view) == len(want)
        assert list(view) == list(want)
        assert list(view.items()) == list(want.items())
        for key, entry in want.items():
            assert key in view and view.get(key, ZERO) == entry
        for key in absent:
            assert key not in view and view.get(key, ZERO) is ZERO
            assert view.get(key) is None
            with pytest.raises(KeyError):
                view[key]
        assert None not in view and "abc" not in view
        assert view == want and want == view
        assert not view != want and not want != view
        changed = dict(want)
        last = list(changed)[-1]
        changed[last] = changed[last] + ONE
        assert view != changed and changed != view
        assert not view == changed and not changed == view


def test_stages_widen_midway_from_packed_inputs(monkeypatch):
    # Z refuses 32-bit slots from the 21st of its 36 columns on, and mu
    # refuses 64-bit slots for the coefficients of coordinate sum <= 2:
    # each stage then drops what it built and starts again from its input
    # stage built anew at the next width, so W is built at 32, 64 (for Z)
    # and 128 bits (for the Z that mu takes), and neither view keeps a table
    n = 5
    pset = ptuples(n)
    late_columns = set(pset[20:])
    late_targets = {y for y in pset if sum(y) <= 2}
    check_bound = expansion._check_bound

    def refusing(bound, width, label):
        stage, _, key = label
        if ((stage == "Z" and width < 64 and key[0] in late_columns)
                or (stage == "mu" and width < 128 and key in late_targets)):
            raise expansion._SlotBoundError(f"refused at {width} bits")
        check_bound(bound, width, label)

    monkeypatch.setattr(expansion, "_check_bound", refusing)
    builds = counting_bar_tables(monkeypatch)
    w = bar_transition_matrix(n)
    z = expansion._canonical_matrix(n, w)
    assert (w._width, z._width) == (32, 64)
    want = oracles.canonical_transition_matrix(n)
    assert z == want and list(z) == list(want) and one_object_per_value(z)
    assert expansion._canonical_coeffs(n, z) == oracles.canonical_coeffs(n)
    assert [width for _, width in builds] == [32, 64, 128]
    assert w._table is None and z._table is None


def one_object_per_value(matrix):
    distinct = {tuple(sorted(e._terms.items())) for e in matrix.values()}
    return len({id(e) for e in matrix.values()}) == len(distinct)


@pytest.mark.parametrize("width", [8, 16, 64, 128])
def test_packed_stages_at_other_widths(monkeypatch, width):
    # 8- and 16-bit slots are refused by the proven bound, and each stage
    # starts again from nothing at the next width with fresh intern
    # tables; 128-bit slots take the generic byte path
    monkeypatch.setattr(expansion, "_START_WIDTH", width)
    w = oracles.bar_transition_matrix(5)
    z = oracles.canonical_transition_matrix(5)
    packed_w = bar_transition_matrix(5)
    assert packed_w == w and one_object_per_value(packed_w)
    packed_z = canonical_transition_matrix(5)
    assert packed_z == z and one_object_per_value(packed_z)
    mu = expansion._canonical_coeffs(5, packed_z)
    assert mu == oracles.canonical_coeffs(5)


def test_packed_pbw_factors_decode_to_pbw_coeff():
    for n in range(1, 8):
        factors = {}
        for y in ptuples(n):
            packed = expansion._packed_pbw(n, y, 64, factors)
            want = pbw_coeff(n, y)
            value, lo, hi, _ = packed
            slots = expansion._decode(value, lo, hi, 64, LABEL)
            assert LaurentPoly(expansion._terms(lo, slots)) == want, (n, y)


LABEL = ("Z", 5, ((1, 1, 1, 1), (0, 0, 0, 0)))


def pack(terms, width=64):
    return expansion._pack(terms, width, LABEL)


def test_kernel_round_trip():
    a = v_power(-4) * qfact(4) - 5 * qint(3)
    b = VINV_MINUS_V ** 3 * qbinom(6, 3)
    lo, slots = expansion._dot([(pack(a._terms), pack(b._terms)),
                                (pack({2: -7}), expansion._UNIT)], 64, LABEL)
    assert LaurentPoly(expansion._terms(lo, slots)) == a * b - 7 * v_power(2)


def test_kernel_refuses_slot_bound():
    big = pack({0: 1 << 40, 2: -1})
    with pytest.raises(ArithmeticError, match=r"entry .* does not fit"):
        pack({0: 1 << 62})
    with pytest.raises(ArithmeticError, match=r"Z entry .* 64-bit slots"):
        expansion._dot([(big, big)], 64, LABEL)
    wide = pack({0: 1 << 40, 2: -1}, 128)
    lo, slots = expansion._dot([(wide, wide)], 128, LABEL)
    assert expansion._terms(lo, slots) == {0: 1 << 80, 2: -(2 << 40), 4: 1}


def test_widening_restarts_from_nothing():
    # each refusal drops the attempt whole; the next one builds its own
    # state from nothing at twice the width
    attempts = []

    def solve(width):
        state = []
        attempts.append((width, state))
        for unit in "abc":
            if unit == "b" and width < 128:
                raise expansion._SlotBoundError("too narrow")
            state.append(unit)
        return state

    result, width = expansion._widening(solve, 32)
    assert attempts == [(32, ["a"]), (64, ["a"]), (128, ["a", "b", "c"])]
    assert result is attempts[-1][1] and width == 128
    assert len({id(state) for _, state in attempts}) == 3


def test_first_w_entry_widens_n7(monkeypatch):
    # the bound of W(upper_bounds(7), 0) needs 31 bits; W walks its columns
    # from the top, so that entry is the first and only one it checks at 32
    # bits, and W, Z and mu all run at 64 bits from then on
    n = 7
    calls = []
    check_bound = expansion._check_bound

    def counting(bound, width, label):
        calls.append((label[0], width, label[2]))
        check_bound(bound, width, label)

    monkeypatch.setattr(expansion, "_check_bound", counting)
    w = bar_transition_matrix(n)
    z = expansion._canonical_matrix(n, w)
    expansion._canonical_coeffs(n, z)
    refused = ("W", 32, (upper_bounds(n), (0,) * (n - 1)))
    assert [c for c in calls if c[:2] == ("W", 32)] == [refused]
    later = calls[calls.index(refused) + 1:]
    assert {stage for stage, _, _ in later} >= {"W", "Z", "mu"}
    assert {width for _, width, _ in later} == {64}
    assert w._width == z._width == 64


def test_kernel_refuses_near_limit_slot():
    limit = 1 << 62
    for coeff in (limit, -limit - 1, limit << 1):
        value = (coeff << 64) + 3  # slots 3, coeff on the lattice 0, 2
        with pytest.raises(ArithmeticError, match="within 2 bits of the"):
            expansion._decode(value, 0, 2, 64, LABEL)
    assert list(expansion._decode((-limit << 64) + 3, 0, 2, 64,
                                  LABEL)) == [3, -limit]
    assert list(expansion._decode(((limit - 1) << 64) - 3, 0, 2, 64,
                                  LABEL)) == [-3, limit - 1]


def test_kernel_refuses_a_product_below_its_first_pair():
    low, high = pack({-2: 1}), pack({0: 1, 2: 3})
    with pytest.raises(ArithmeticError,
                       match="Z entry .* has a product below its first pair"):
        expansion._dot([(high, expansion._UNIT), (low, expansion._UNIT)],
                       64, LABEL)
    lo, slots = expansion._dot([(low, expansion._UNIT),
                                (high, expansion._UNIT)], 64, LABEL)
    assert expansion._terms(lo, slots) == {-2: 1, 0: 1, 2: 3}


def test_kernel_refuses_mixed_parity():
    with pytest.raises(ArithmeticError, match="Z entry .* mixes parity"):
        pack({0: 1, 1: 1})
    with pytest.raises(ArithmeticError, match="mixes parity"):
        pack({0: 1, 3: 1, 4: 1})
    even, odd = pack({0: 1, 2: 1}), pack({1: 1})
    with pytest.raises(ArithmeticError, match="mixes parity"):
        expansion._dot([(even, expansion._UNIT), (odd, expansion._UNIT)],
                       64, LABEL)


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128, 256])
def test_pack_slots_is_the_kronecker_sum(width):
    # the packed value is sum c_i 2^(width i) on every width, and the
    # decoder gives the slots back; slots at the edge of the proven bound,
    # +-(2^(width - 2) - 1), are included
    rng = random.Random(width)
    edge = (1 << (width - 2)) - 1
    cases = [[edge], [-edge], [0, edge, 0], [-edge, 0], [0]]
    for count in range(1, 12):
        share = edge // count
        cases.append([rng.randint(-share, share) for _ in range(count)])
    for slots in cases:
        lo = rng.randrange(-20, 20)
        value, got_lo, hi, norm = expansion._pack_slots(slots, lo, width,
                                                        LABEL)
        assert value == sum(c << (width * i) for i, c in enumerate(slots))
        assert (got_lo, hi, norm) == (lo, lo + 2 * (len(slots) - 1),
                                      sum(map(abs, slots)))
        assert list(expansion._decode(value, lo, hi, width, LABEL)) == slots


def test_bar_transition_coeff_is_the_product_of_its_local_factors():
    # the closed form and the packed W walk read one local factor g_k
    for n in range(1, 6):
        for x in ptuples(n):
            xe = padded(n, x)
            for y in below(x):
                de = padded(n, map(sub, x, y))
                want = math.prod(
                    (expansion._bar_factor(n, xe[k - 1], xe[k], de[k - 1],
                                           de[k]) for k in range(1, n + 1)),
                    start=ONE)
                assert bar_transition_coeff(n, x, y) == want, (n, x, y)


def test_traced_call_chain(monkeypatch):
    # perfbench's traced worker rebinds the three stage names in every
    # lindeg module, reads W's span and divides Z's products by Z's self
    # time: a cold verify must nest the stages once, build W inside W's
    # span, and run Z's box sums (_box_solve) inside Z's span but outside
    # W's
    from lindeg.supports import all_checks_pass, verify_supports
    stages = ("canonical_coeffs", "canonical_transition_matrix",
              "bar_transition_matrix")
    calls, open_spans = [], []

    def traced(fn, name):
        def call(*args):
            calls.append((name, tuple(open_spans), args))
            open_spans.append(name)
            try:
                return fn(*args)
            finally:
                open_spans.pop()
        return call

    modules = [m for name, m in sys.modules.items()
               if name == "lindeg" or name.startswith("lindeg.")]
    canonical_coeffs.cache_clear()
    for name in stages:
        fn = getattr(expansion, name)
        wrapped = traced(fn, name)
        for m in modules:
            for attr in [a for a, v in vars(m).items() if v is fn]:
                monkeypatch.setattr(m, attr, wrapped)
    for name in ("_bar_table", "_box_solve"):
        monkeypatch.setattr(expansion, name,
                            traced(getattr(expansion, name), name))
    assert all_checks_pass(verify_supports(5))
    chain = [(name, spans) for name, spans, _ in calls if name in stages]
    # the first canonical_coeffs builds mu; later ones are cache hits
    assert chain[:3] == [(stages[0], ()), (stages[1], stages[:1]),
                         (stages[2], stages[:2])]
    assert {call for call in chain[3:]} <= {(stages[0], ())}
    bar_tables = [spans for name, spans, _ in calls if name == "_bar_table"]
    assert len(bar_tables) == 1
    assert all(stages[2] in spans for spans in bar_tables)
    z_sums = [spans for name, spans, _ in calls if name == "_box_solve"]
    assert z_sums and all(stages[1] in spans and stages[2] not in spans
                          for spans in z_sums)
