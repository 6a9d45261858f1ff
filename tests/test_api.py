"""The public API: the exact names ``lindeg`` exports, and the one integer
rule every one of them keeps."""

import contextlib
import operator

import pytest

import lindeg
from lindeg import (
    ONE,
    V,
    ZERO,
    LaurentPoly,
    Multisegment,
    RankTuple,
    asymptotics_report,
    bar_transition_coeff,
    bar_transition_matrix,
    bell_number,
    canonical_coeffs,
    canonical_transition_matrix,
    computed_supports,
    dual_rank_tuple,
    has_single_peak,
    in_parameter_set,
    is_motzkin_path,
    kz_rank_general,
    leq,
    monotone_maps,
    motzkin_number,
    motzkin_paths,
    next_neighbor_rank,
    path_to_multisegment,
    pbw_coeff,
    pbw_locus_ranks,
    predicted_supports,
    ptuples,
    qbinom,
    qfact,
    qint,
    r1_tuple,
    rank_from_motzkin,
    ratio_string,
    single_peak_paths,
    upper_bounds,
    v_power,
    verify_supports,
)

PUBLIC = {
    "MINUS_INFINITY", "ZERO", "ONE", "V", "LaurentPoly",
    "qint", "qfact", "qbinom", "v_power",
    "Multisegment", "RankTuple",
    "motzkin_paths", "ptuples", "leq", "is_motzkin_path", "in_parameter_set",
    "upper_bounds", "path_to_multisegment", "r1_tuple", "rank_from_motzkin",
    "has_single_peak", "single_peak_paths", "pbw_locus_ranks",
    "motzkin_number", "bell_number",
    "monotone_maps", "kz_rank_general", "next_neighbor_rank",
    "dual_rank_tuple", "dual_rank_tuple_general",
    "dual_rank_tuple_near_simple",
    "pbw_coeff",
    "bar_transition_coeff", "bar_transition_matrix",
    "canonical_transition_matrix", "canonical_coeffs",
    "predicted_supports", "computed_supports", "verify_supports",
    "all_checks_pass", "asymptotics_report", "ratio_string",
}

#: Reference forms that only the tests read; they live in tests/oracles.py.
MOVED = ("rank2_straighten", "two_row_pbw_expansion", "staircase_exponents",
         "kz_rank_near_simple", "kz_rank_simple", "kz_rank_minplus",
         "dual_rank_tuple_minplus", "pbw_coeff_degree",
         "pbw_coeff_degree_gap")


def test_all_is_exactly_the_public_names():
    assert len(lindeg.__all__) == len(PUBLIC) == 42
    assert set(lindeg.__all__) == PUBLIC
    for name in lindeg.__all__:
        assert hasattr(lindeg, name), name


def test_oracles_are_not_exported():
    for name in MOVED:
        assert name not in lindeg.__all__
        assert not hasattr(lindeg, name)
        assert not hasattr(lindeg.expansion, name)
        assert not hasattr(lindeg.duality, name)


#: Names in __all__ that take no n, tuple, path, index or q-argument.
NO_INTEGER_ARGUMENT = {
    "MINUS_INFINITY", "ZERO", "ONE", "V",  # constants
    "dual_rank_tuple_general", "dual_rank_tuple_near_simple",  # a Multisegment
    "all_checks_pass",  # a verify_supports report
}

M3 = Multisegment(3, {(1, 2): 1})

#: For every other name in __all__, one call per integer position, with the
#: flag b in that position: (what it does with a bool, call).  An exception
#: type means it raises that, with the value in its message; False means a
#: predicate that answers False, as for any other non-member.
REFUSALS = {
    "LaurentPoly": [(TypeError, lambda b: LaurentPoly({b: 1})),
                    (TypeError, lambda b: LaurentPoly([(0, b)]))],
    "qint": [(TypeError, qint)],
    "qfact": [(TypeError, qfact)],
    "qbinom": [(TypeError, lambda b: qbinom(b, 1)),
               (TypeError, lambda b: qbinom(2, b))],
    "v_power": [(TypeError, v_power)],
    "Multisegment": [(ValueError, Multisegment),
                     (ValueError, lambda b: Multisegment(2, {(b, 2): 1})),
                     (ValueError, lambda b: Multisegment(2, {(1, b): 1})),
                     (ValueError, lambda b: Multisegment(2, {(1, 2): b}))],
    "RankTuple": [(ValueError, lambda b: RankTuple(b, {})),
                  (ValueError, lambda b: RankTuple(
                      2, {(1, 1): 3, (1, 2): b, (2, 2): 3}))],
    "motzkin_paths": [(ValueError, motzkin_paths)],
    "ptuples": [(ValueError, ptuples)],
    "upper_bounds": [(ValueError, upper_bounds)],
    "r1_tuple": [(ValueError, r1_tuple)],
    "single_peak_paths": [(ValueError, single_peak_paths)],
    "pbw_locus_ranks": [(ValueError, pbw_locus_ranks)],
    "motzkin_number": [(ValueError, motzkin_number)],
    "bell_number": [(ValueError, bell_number)],
    "leq": [(ValueError, lambda b: leq((b, 0), (1, 1))),
            (ValueError, lambda b: leq((0, 0), (1, b)))],
    "is_motzkin_path": [(ValueError, lambda b: is_motzkin_path(b, ())),
                        (False, lambda b: is_motzkin_path(3, (b, 0)))],
    "in_parameter_set": [(ValueError, lambda b: in_parameter_set(b, ())),
                         (False, lambda b: in_parameter_set(3, (b, 0)))],
    "has_single_peak": [(ValueError, lambda b: has_single_peak(b, ())),
                        (False, lambda b: has_single_peak(3, (b, 0)))],
    "path_to_multisegment": [
        (ValueError, lambda b: path_to_multisegment(b, ())),
        (ValueError, lambda b: path_to_multisegment(3, (b, 0)))],
    "rank_from_motzkin": [
        (ValueError, lambda b: rank_from_motzkin(b, ())),
        (ValueError, lambda b: rank_from_motzkin(3, (b, 0)))],
    "monotone_maps": [
        (ValueError, lambda b: list(monotone_maps(b, 1, 0, 1))),
        (ValueError, lambda b: list(monotone_maps(1, b, 0, 1))),
        (ValueError, lambda b: list(monotone_maps(1, 1, b, 1))),
        (ValueError, lambda b: list(monotone_maps(1, 1, 0, b)))],
    "kz_rank_general": [(ValueError, lambda b: kz_rank_general(M3, b, 2)),
                        (ValueError, lambda b: kz_rank_general(M3, 1, b))],
    "next_neighbor_rank": [
        (ValueError, lambda b: next_neighbor_rank(b, (), 1)),
        (ValueError, lambda b: next_neighbor_rank(3, (b, 0), 1)),
        (ValueError, lambda b: next_neighbor_rank(2, (1,), b))],
    "dual_rank_tuple": [(ValueError, lambda b: dual_rank_tuple(b, ())),
                        (ValueError, lambda b: dual_rank_tuple(3, (b, 0)))],
    "pbw_coeff": [(ValueError, lambda b: pbw_coeff(b, ())),
                  (ValueError, lambda b: pbw_coeff(3, (b, 0)))],
    "bar_transition_coeff": [
        (ValueError, lambda b: bar_transition_coeff(b, (), ())),
        (ValueError, lambda b: bar_transition_coeff(3, (b, 1), (0, 0))),
        (ValueError, lambda b: bar_transition_coeff(3, (1, 1), (b, 0)))],
    "bar_transition_matrix": [(ValueError, bar_transition_matrix)],
    "canonical_transition_matrix": [(ValueError,
                                     canonical_transition_matrix)],
    "canonical_coeffs": [(ValueError, canonical_coeffs)],
    "predicted_supports": [(ValueError, predicted_supports)],
    "computed_supports": [(ValueError, computed_supports)],
    "verify_supports": [(ValueError, verify_supports)],
    "asymptotics_report": [(ValueError, asymptotics_report)],
    "ratio_string": [(TypeError, lambda b: ratio_string(b, 3)),
                     (TypeError, lambda b: ratio_string(1, b)),
                     (TypeError, lambda b: ratio_string(1, 3, b))],
}


def test_every_public_name_is_in_the_refusal_table_or_takes_no_integer():
    # a new entry point has to state how it keeps the integer rule
    assert not set(REFUSALS) & NO_INTEGER_ARGUMENT
    assert set(REFUSALS) | NO_INTEGER_ARGUMENT == set(lindeg.__all__)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_bool_is_refused_in_every_integer_position(name):
    # isinstance(True, int) holds, but a bool is no integer argument here
    for refusal, call in REFUSALS[name]:
        for flag in (True, False):
            # first the int the flag equals, so that a cached entry of 0 or
            # 1 cannot answer for the flag
            with contextlib.suppress(ArithmeticError, ValueError):
                call(int(flag))
            if refusal is False:
                assert call(flag) is False, (name, flag)
                continue
            with pytest.raises(refusal) as info:
                call(flag)
            assert repr(flag) in str(info.value), (name, str(info.value))


def test_laurent_arithmetic_refuses_bool():
    for flag in (True, False):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError, match="'bool'"):
                op(ZERO, flag)
            with pytest.raises(TypeError, match="'bool'"):
                op(flag, ZERO)
        with pytest.raises(
                ValueError,
                match="^only nonnegative integer powers are defined$"):
            V ** flag
        # no polynomial equals the int a bool would pass for
        assert ONE != flag and ZERO != flag
    # ints still mix with polynomials
    assert ZERO + 1 == ONE and 1 - ZERO == ONE and V ** 1 == V
    assert (1 - ZERO).to_pairs() == [[0, "1"]]
