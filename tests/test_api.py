"""The public API: the exact names ``lindeg`` exports."""

import lindeg

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
