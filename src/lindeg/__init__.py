"""lindeg: exact canonical-basis computations for linear degenerations of
flag varieties.

The package expands the staircase monomial of divided powers into Lusztig's
canonical basis with exact Laurent-polynomial coefficients, maps parameters
through the Knight-Zelevinsky multisegment duality, and computes the support
set of the degeneration family two independent ways: combinatorially via
Motzkin paths and algebraically via the expansion.
"""

from .laurent import (
    MINUS_INFINITY,
    ONE,
    V,
    ZERO,
    LaurentPoly,
    qbinom,
    qfact,
    qint,
    v_power,
)
from .combinatorics import (
    Multisegment,
    RankTuple,
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
from .duality import (
    dual_rank_tuple,
    dual_rank_tuple_general,
    dual_rank_tuple_near_simple,
    kz_rank_general,
    monotone_maps,
    next_neighbor_rank,
)
from .expansion import (
    bar_transition_coeff,
    bar_transition_matrix,
    canonical_coeffs,
    canonical_transition_matrix,
    pbw_coeff,
)
from .supports import (
    all_checks_pass,
    asymptotics_report,
    computed_supports,
    predicted_supports,
    ratio_string,
    verify_supports,
)

__version__ = "0.1.0"

__all__ = [
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
]
