"""Slow dict-path oracles for the packed expansion kernel.

These are the straightforward ``LaurentPoly`` implementations of the three
expansion stages: W entry by entry from the closed form
``bar_transition_coeff``, the triangular solve for Z, and the
back-substitution for mu.  Every product is a dict-of-terms convolution, so
they are independent of the packed-integer kernel in
``lindeg.expansion``; the tests compare the two for every n <= 6.
"""

from functools import lru_cache

from lindeg.combinatorics import ptuples, upper_bounds
from lindeg.expansion import (
    _below,
    _between,
    _descending,
    bar_transition_coeff,
    pbw_coeff,
)
from lindeg.laurent import ONE, ZERO


@lru_cache(maxsize=None)
def bar_transition_matrix(n: int) -> dict:
    """All bar-transition coefficients {(x, y): coeff} for pairs y <= x in
    the parameter set, one closed-form evaluation per entry."""
    out = {}
    for x in ptuples(n):
        for y in _below(x):
            w = bar_transition_coeff(n, x, y)
            if w:
                out[(x, y)] = w
    return out


@lru_cache(maxsize=None)
def canonical_transition_matrix(n: int) -> dict:
    """Canonical-to-PBW transition coefficients {(x, y): coeff}, y <= x.

    Diagonal entries are 1.  Each off-diagonal entry z solves
    z - bar(z) = w(x, y) + sum over y < m < x of bar(z(x, m)) w(m, y)
    inside v^-1 Z[v^-1], i.e. z is the negative-exponent part of the right
    hand side; entries are solved for targets of descending coordinate sum
    so the needed intermediate entries always exist already.  A right-hand
    side with a constant term, or one that is not bar-antisymmetric, means
    the bar-transition closed form is broken, and raises ArithmeticError.
    Absent keys are zero.  Treat the returned dict as read-only.
    """
    w = bar_transition_matrix(n)
    out = {}
    for x in ptuples(n):
        out[(x, x)] = ONE
        bars = {}  # bar images of the entries solved so far in this column
        targets = [y for y in _below(x) if y != x]
        for y in _descending(targets):
            rhs = w.get((x, y), ZERO)
            for m in _between(y, x):
                if m == x or m == y:
                    continue
                zbar = bars.get(m)
                if zbar is not None:
                    wmy = w.get((m, y))
                    if wmy is not None:
                        rhs = rhs + zbar * wmy
            if rhs.coefficient(0) or rhs.bar() != -rhs:
                raise ArithmeticError(
                    f"bar-antisymmetry failed solving entry ({x}, {y}) at "
                    f"n={n}: rhs = {rhs}")
            z = rhs.negative_part()
            if z:
                out[(x, y)] = z
                bars[y] = z.bar()
    return out


@lru_cache(maxsize=None)
def canonical_coeffs(n: int) -> dict:
    """Canonical-basis coefficients {y: coeff} of the staircase monomial.

    Back-substitution through the unitriangular canonical-to-PBW matrix:
    starting from the maximal parameter tuple, coeff(y) is the PBW
    coefficient of y minus the already-known contributions of all larger
    keys.  Zero coefficients are dropped.  Treat the returned dict as
    read-only.
    """
    zeta = canonical_transition_matrix(n)
    bounds = upper_bounds(n)
    out = {}
    for y in _descending(ptuples(n)):
        acc = pbw_coeff(n, y)
        for x in _between(y, bounds):
            if x == y:
                continue
            mu_x = out.get(x)
            if mu_x is None:
                continue
            z = zeta.get((x, y))
            if z is not None:
                acc = acc - mu_x * z
        if acc:
            out[y] = acc
    return out
