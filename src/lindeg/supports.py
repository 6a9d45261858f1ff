"""Two independent computations of the support set, and their comparison.

The support set of the degeneration family is computed along two fully
separate pipelines and compared:

* combinatorial prediction: the rank tuples of all Motzkin paths
  (``predicted_supports``);
* algebraic computation: expand the staircase monomial in the canonical
  basis, attach to every surviving parameter tuple the dual rank tuple of
  its multisegment, and keep the tuples above the threshold
  (``computed_supports``).

``verify_supports`` runs the comparison plus the finer per-element,
PBW-locus and involution checks and returns a structured report.  The only
code shared between the two pipelines is the Laurent coefficient ring and
the plain container types.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from types import MappingProxyType

from .combinatorics import (
    _bell_numbers,
    _motzkin_numbers,
    _motzkin_rank,
    motzkin_number,
    motzkin_paths,
    pbw_locus_ranks,
    padded,
    ptuples,
    rank_from_motzkin,
    single_peak_paths,
)
from .duality import _next_neighbor_rank, dual_rank_tuple
from .expansion import canonical_coeffs
from .laurent import _is_int


def predicted_supports(n: int) -> list:
    """Support set predicted from Motzkin combinatorics: the rank tuples
    of the Motzkin paths, canonically sorted by ``values``.

    The rank tuples are ``rank_from_motzkin`` of every path of
    ``motzkin_paths``, so the unchecked form skips the path check.  Every
    call computes a fresh list.
    """
    return sorted([_motzkin_rank(n, x) for x in motzkin_paths(n)],
                  key=attrgetter("values"))


@lru_cache(maxsize=None)
def _dual_ranks(n: int) -> MappingProxyType:
    """{y: dual_rank_tuple(n, y)} over P(n), shared by computed_supports
    and verify_supports; read-only."""
    return MappingProxyType({y: dual_rank_tuple(n, y) for y in ptuples(n)})


def computed_supports(n: int) -> list:
    """Support set computed from the canonical expansion, canonically sorted.

    Keep the dual rank tuple of every parameter tuple with nonzero canonical
    coefficient, filtered by the full componentwise threshold comparison.
    """
    duals = _dual_ranks(n)
    found = {duals[y] for y in canonical_coeffs(n) if duals[y].geq_r1()}
    return sorted(found, key=attrgetter("values"))


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _differences(left: str, a: set, right: str, b: set, show) -> str:
    """Up to three elements from each side of the symmetric difference of
    a and b, smallest first, for the detail of a failed check."""
    parts = []
    for label, only in ((left, a - b), (right, b - a)):
        if only:
            shown = sorted(only)[:3]
            more = f" and {len(only) - 3} more" if len(only) > 3 else ""
            parts.append(f"only {label}: "
                         + ", ".join(show(e) for e in shown) + more)
    return "; " + "; ".join(parts) if parts else ""


def tup(values: tuple) -> str:
    """An integer tuple as text, "(1, 0)", with no trailing comma at
    length one; the CLI prints tuples this way too."""
    if len(values) == 1:
        return f"({values[0]})"
    return str(values)


def verify_supports(n: int) -> dict:
    """Cross-check the two support pipelines and the related structure.

    Returns {"n", "motzkin_count", "supports", "checks"} where supports is
    the canonical sorted list of RankTuple and checks is a list of
    {"name", "pass", "detail"} entries.
    """
    predicted = predicted_supports(n)
    computed = computed_supports(n)
    pred_set, comp_set = set(predicted), set(computed)
    checks = []

    checks.append(_check(
        "set_equality",
        comp_set == pred_set,
        f"algebraic pipeline found {len(comp_set)} tuples, "
        f"combinatorial pipeline {len(pred_set)}"
        + _differences("algebraic", comp_set, "combinatorial", pred_set,
                       lambda rt: tup(rt.off_diagonal()))))

    duals = _dual_ranks(n)
    survivors = {y for y in canonical_coeffs(n) if duals[y].geq_r1()}
    motzkin = set(motzkin_paths(n))
    checks.append(_check(
        "per_element_motzkin",
        survivors == motzkin,
        f"{len(survivors)} surviving parameter tuples vs "
        f"{len(motzkin)} Motzkin paths"
        + _differences("surviving", survivors, "Motzkin", motzkin, tup)))

    pbw = set(pbw_locus_ranks(n))
    checks.append(_check(
        "pbw_in_supports",
        pbw <= pred_set,
        f"{len(pbw & pred_set)} of {len(pbw)} PBW-locus tuples are supports"))

    peaks = single_peak_paths(n)
    images = [rank_from_motzkin(n, x) for x in peaks]
    checks.append(_check(
        "single_peak_bijection",
        len(set(images)) == len(peaks) and set(images) == pbw,
        f"{len(peaks)} single-peak paths onto {len(pbw)} PBW-locus tuples"))

    reduction_ok = all(
        rt.geq_r1()
        == all(_next_neighbor_rank(n, padded(n, y), i) >= n
               for i in range(1, n))
        for y, rt in duals.items())
    checks.append(_check(
        "filter_reduction",
        reduction_ok,
        "full threshold comparison agrees with the next-neighbour test on "
        "every parameter tuple"))

    checks.append(_check(
        "hat_invariance",
        {rt.hat() for rt in pred_set} == pred_set,
        "support set is stable under the reflection involution"))

    checks.append(_check(
        "support_count",
        len(pred_set) == motzkin_number(n),
        f"{len(pred_set)} supports vs Motzkin number {motzkin_number(n)}"))

    return {
        "n": n,
        "motzkin_count": motzkin_number(n),
        "supports": predicted,
        "checks": checks,
    }


def all_checks_pass(report: dict) -> bool:
    return all(c["pass"] for c in report["checks"])


def ratio_string(num: int, den: int, digits: int = 20) -> str:
    """Decimal rendering of an exact integer quotient at a fixed number of
    significant digits."""
    if not all(map(_is_int, (num, den, digits))):
        raise TypeError(f"{(num, den, digits)!r} are not all ints")
    with localcontext() as ctx:
        ctx.prec = digits
        s = str(Decimal(num) / Decimal(den))
    if "." not in s and "E" not in s and "e" not in s:
        s += ".0"
    return s


def asymptotics_report(max_n: int) -> list:
    """Rows (n, motzkin_number, bell_number, ratio) for n = 1..max_n.

    The counts are exact big integers; the ratio column renders the exact
    quotient at 20 significant digits.  The ratio is strictly decreasing
    from n = 4 on and vanishes exponentially fast.
    """
    if not _is_int(max_n):
        raise ValueError(f"max_n must be an integer, got {max_n!r}")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    counts = islice(zip(_motzkin_numbers(), _bell_numbers()), 1, max_n + 1)
    return [(n, m, b, ratio_string(m, b))
            for n, (m, b) in enumerate(counts, start=1)]
