"""Command-line surface: deterministic text, JSON and CSV reports.

Subcommands: supports, expand, motzkin, dual, verify, asymptotics.
Exit codes: 0 on success, 1 on failed verification or an internal error
(an ArithmeticError from the expansion engine), 2 on usage errors.
Output is byte-identical across runs with identical arguments; the cost
warning for a raised size cap goes to standard error so it never perturbs
the report stream.

Each subcommand's report returns (text, exit code) and raises ValueError
on a usage error.  ``main`` is the one place that writes a report, with a
single write to standard output, and the one place that maps an exception
to its error line and exit code.

``supports``, ``motzkin``, ``expand``, ``asymptotics`` and ``dual`` print
pure functions of their arguments, so each of their reports is rendered
once per process into one immutable string (``dual``'s for the 1,024 most
recent inputs, since its input is arbitrary).  Only ``verify`` renders per
request, because a repeated verify must run its checks again.  Errors and
warnings are not cached: they reach standard error on every request.

Each distinct argv is parsed once per process (the most recent 1,024), so
repeated requests share one namespace and nothing may write to it.  A
failed parse is not cached: usage errors and help print on every request.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from decimal import Decimal
from functools import lru_cache

from .combinatorics import (
    Multisegment,
    RankTuple,
    motzkin_number,
    motzkin_paths,
    path_to_multisegment,
    segments_str,
)
from .duality import (
    dual_rank_tuple,
    dual_rank_tuple_general,
    dual_rank_tuple_near_simple,
)
from .expansion import _pairs, canonical_coeffs
from .laurent import LaurentPoly, _parse_int, qbinom, qint
from .supports import (
    all_checks_pass,
    asymptotics_report,
    predicted_supports,
    tup,
    verify_supports,
)

#: Subcommands refuse n above this unless --max-n raises the cap; the
#: expansion engine cost grows quickly with the parameter set.
DEFAULT_MAX_N = 8


def parse_multisegment(text: str, n: int | None) -> Multisegment:
    entries = []
    body = text.strip()
    if body not in ("", "0"):
        for item in body.split(";"):
            item = item.strip()
            try:
                left, value = item.split("=")
                # each field as LaurentPoly.from_pairs reads an int: an
                # optional '-' and ASCII digits, no '_' or '+'
                i, j, mult = (_parse_int(f.strip())
                              for f in [*left.split(","), value])
                entries.append(((i, j), mult))
            except ValueError:
                raise ValueError(f"cannot parse multisegment entry {item!r}; "
                                 "expected i,j=mult")
    if n is None:
        if not entries:
            raise ValueError("empty multisegment needs an explicit --n")
        n = max(j for (_, j), _ in entries)
    return Multisegment(n, entries)


# ---------------------------------------------------------------------------
# quantum-symbol display of coefficients
# ---------------------------------------------------------------------------

def quantum_label(p: LaurentPoly) -> str:
    """Factored display when p is a quantum factorial, a product of quantum
    integers, or a single quantum binomial; expanded form otherwise.
    Detection is by exact division only."""
    if not p:
        return "0"
    if p == 1:
        return "1"
    deg = p.degree()
    if deg <= 0:
        return str(p)
    # complete product of quantum integers, largest factors first; a
    # division by [k] is tried only where the values at v = 1 and v = 2
    # allow it (see _value_at_two).  [j] is a unit times the Phi_d(v) with
    # d | 2j, d > 2, and Phi_2j divides [i] only when j | i, so the pass
    # divides [k]! = [k][k-1]...[2] by each of its factors once: a run
    # k, k-1, ..., 2 is printed [k]!
    work = p
    at_one, at_two = p.at_one(), _value_at_two(p)
    factors = []
    for k in range(deg + 1, 1, -1):
        qint_at_two = (4 ** k - 1) // 3
        while at_one % k == 0 and at_two % qint_at_two == 0:
            try:
                work = work.exact_div(qint(k))
            except ValueError:
                break
            at_one //= k
            at_two //= qint_at_two
            factors.append(k)
            if work == 1:
                if factors == list(range(factors[0], 1, -1)):
                    return f"[{factors[0]}]!"
                return "".join(f"[{f}]" for f in factors)
    # single quantum binomial
    for a in range(2, deg + 2):
        for b in range(1, a // 2 + 1):
            if b * (a - b) == deg and p == qbinom(a, b):
                return f"[{a} choose {b}]"
    return str(p)


def _value_at_two(p: LaurentPoly) -> int:
    """v^-low p(v) at v = 2, where low is the lowest exponent of p.

    For [k] it is 1 + 4 + ... + 4^(k-1) = (4^k - 1)/3, and for a product
    the product of the factors' values, since the lowest exponents add.
    So [k] can divide p exactly only if (4^k - 1)/3 divides this integer,
    and the value of the quotient is the quotient of the values.
    """
    value = 0
    for c in p.coefficients_descending():
        value = 2 * value + c
    return value


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _lines_text(lines) -> str:
    return "\n".join(lines) + "\n"


def _rank_json(rt: RankTuple) -> dict:
    return {"n": rt.n, "r": rt.to_pairs()}


@lru_cache(maxsize=None)
def _supports_text(n: int, fmt: str) -> str:
    sup = predicted_supports(n)
    if fmt == "json":
        return _json_text({"n": n, "count": len(sup),
                           "supports": [_rank_json(rt) for rt in sup]})
    if fmt == "csv":
        return _csv_text([[f"r_{i}_{j}" for i in range(1, n + 1)
                           for j in range(i + 1, n + 1)]]
                         + [rt.off_diagonal() for rt in sup])
    return _lines_text([f"supports n={n}: {len(sup)} rank tuples "
                        f"(Motzkin number {motzkin_number(n)})"]
                       + [tup(rt.off_diagonal()) for rt in sup])


@lru_cache(maxsize=None)
def _motzkin_text(n: int, fmt: str) -> str:
    paths = motzkin_paths(n)
    if fmt == "json":
        return _json_text({"n": n, "count": len(paths),
                           "paths": [list(x) for x in paths]})
    if fmt == "csv":
        return _csv_text([[f"x_{k}" for k in range(1, n)]] + paths)
    return _lines_text([f"motzkin n={n}: {len(paths)} paths"]
                       + [tup(x) for x in paths])


@lru_cache(maxsize=None)
def _expand_text(n: int, fmt: str, expanded: bool) -> str:
    """Rows (y, segments, rank, coefficient) in descending y: the
    multisegment of y as sorted ((i, j), mult) items, its dual rank tuple
    and the canonical coefficient."""
    coeffs = canonical_coeffs(n)
    rows = [(y, sorted(path_to_multisegment(n, y).mult.items()),
             dual_rank_tuple(n, y), coeffs[y])
            for y in sorted(coeffs, reverse=True)]
    if fmt == "json":
        return _json_text({"n": n, "terms": [
            {"y": list(y), "multisegment": [[i, j, v] for (i, j), v in segs],
             "rank": _rank_json(rt), "coefficient": c.to_pairs()}
            for y, segs, rt, c in rows]})
    if fmt == "csv":
        return _csv_text([["y", "multisegment", "rank", "coefficient"]] + [
            [" ".join(map(str, y)), segments_str(segs),
             " ".join(map(str, rt.off_diagonal())), json.dumps(c.to_pairs())]
            for y, segs, rt, c in rows])
    return _lines_text([f"expansion n={n}: {len(rows)} terms"] + [
        f"y={tup(y)}  segments=[{segments_str(segs)}]  "
        f"rank={tup(rt.off_diagonal())}  "
        f"coeff={c if expanded else quantum_label(c)}"
        for y, segs, rt, c in rows])


def _verify_report(args) -> tuple[str, int]:
    n = args.n
    report = verify_supports(n)
    ok = all_checks_pass(report)
    if args.format == "json":
        text = _json_text({
            "n": report["n"],
            "motzkin_count": report["motzkin_count"],
            "supports": [_rank_json(rt) for rt in report["supports"]],
            "checks": report["checks"],
        })
    elif args.format == "csv":
        text = _csv_text([["name", "pass", "detail"]] + [
            [c["name"], str(c["pass"]).lower(), c["detail"]]
            for c in report["checks"]])
    else:
        lines = [f"verify n={n}: {len(report['supports'])} supports "
                 f"(Motzkin number {report['motzkin_count']})"]
        lines += [tup(rt.off_diagonal()) for rt in report["supports"]]
        lines += [f"check {c['name']}: {'PASS' if c['pass'] else 'FAIL'} "
                  f"({c['detail']})" for c in report["checks"]]
        passed = sum(1 for c in report["checks"] if c["pass"])
        lines.append(f"result: {'PASS' if ok else 'FAIL'} "
                     f"({passed}/{len(report['checks'])} checks)")
        text = _lines_text(lines)
    return text, 0 if ok else 1


#: Bounded like ``_parse``: its keys are arbitrary ``dual`` input.
@lru_cache(maxsize=1024)
def _dual_text(multisegment: str, n: int | None, fmt: str,
               cap: int) -> tuple[str, int]:
    """The dual report of one request and its exit code, 1 when the
    near-simple closed form disagrees with the general formula."""
    m = parse_multisegment(multisegment, n)
    _check_cap(m.n, cap)
    general = dual_rank_tuple_general(m)
    near = dual_rank_tuple_near_simple(m) if m.is_near_simple() else None
    match = None if near is None else (near == general)
    if fmt == "json":
        text = _json_text({
            "n": m.n,
            "multisegment": m.to_pairs(),
            "general": _rank_json(general),
            "near_simple": None if near is None else _rank_json(near),
            "match": match,
        })
    elif fmt == "csv":
        rows = [["formula", "ranks"],
                ["general", segments_str(general.r.items())]]
        if near is not None:
            rows.append(["near-simple", segments_str(near.r.items())])
        text = _csv_text(rows)
    else:
        lines = [f"dual n={m.n}: {segments_str(sorted(m.mult.items()))}",
                 f"general: {segments_str(general.r.items())}"]
        if near is None:
            lines.append("near-simple: n/a (a segment of length 3 or more "
                         "is present)")
        else:
            lines += [f"near-simple: {segments_str(near.r.items())}",
                      f"match: {'yes' if match else 'MISMATCH'}"]
        text = _lines_text(lines)
    return text, 1 if match is False else 0


def _dual_report(args) -> tuple[str, int]:
    text, code = _dual_text(args.multisegment, args.n, args.format,
                            args.max_n)
    if code:
        print("internal error: the closed form disagrees with the "
              "general duality formula", file=sys.stderr)
    return text, code


#: max_n has no size cap, so this cache keeps only the most recent texts.
@lru_cache(maxsize=128)
def _asymptotics_text(max_n: int, fmt: str) -> str:
    # str(Decimal(k)) spells out every digit of the exact count, while
    # str(k) refuses ints beyond the interpreter's int-to-str digit limit
    rows = [(n, str(Decimal(m)), str(Decimal(b)), r)
            for n, m, b, r in asymptotics_report(max_n)]
    if fmt == "json":
        return _json_text({"max_n": max_n, "rows": [
            {"n": n, "motzkin": m, "bell": b, "ratio": r}
            for n, m, b, r in rows]})
    if fmt == "csv":
        return _csv_text([["n", "motzkin", "bell", "ratio"]] + rows)
    return _lines_text(["n  motzkin  bell  ratio"]
                       + [f"{n}  {m}  {b}  {r}" for n, m, b, r in rows])


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _int_arg(text: str) -> int:
    """An integer argument as LaurentPoly.from_pairs reads one: an optional
    '-' and ASCII digits, so '+3', '1_0' and non-ASCII digits are refused."""
    return _parse_int(text)


# argparse names the type in its message: "invalid int value: '+3'"
_int_arg.__name__ = "int"


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Each subcommand's
    ``report`` maps the namespace to (text, exit code) and only reads it:
    ``_parse`` hands the same namespace to every request with that argv."""
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=["text", "json", "csv"],
                           default="text", help="output format")
    sized = argparse.ArgumentParser(add_help=False, parents=[formatted])
    sized.add_argument("--max-n", type=_int_arg, default=DEFAULT_MAX_N,
                       metavar="K", help=f"set the size cap to K (default "
                       f"{DEFAULT_MAX_N}); a cap above {DEFAULT_MAX_N} prints "
                       f"a cost warning")
    sized.set_defaults(sized=True)

    parser = argparse.ArgumentParser(
        prog="lindeg",
        description="Exact canonical-basis expansions, multisegment duality "
                    "and Motzkin support sets for linear degenerations of "
                    "flag varieties.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("supports", parents=[sized],
                       help="support rank tuples for a given n")
    p.add_argument("n", type=_int_arg)
    p.set_defaults(report=lambda a: (_supports_text(a.n, a.format), 0))

    p = sub.add_parser("expand", parents=[sized],
                       help="canonical expansion of the staircase monomial")
    p.add_argument("n", type=_int_arg)
    p.add_argument("--expanded", action="store_true",
                   help="print coefficients as expanded Laurent polynomials")
    p.set_defaults(
        report=lambda a: (_expand_text(a.n, a.format, a.expanded), 0))

    p = sub.add_parser("motzkin", parents=[sized],
                       help="enumerate Motzkin paths")
    p.add_argument("n", type=_int_arg)
    p.set_defaults(report=lambda a: (_motzkin_text(a.n, a.format), 0))

    p = sub.add_parser("dual", parents=[sized],
                       help="dual rank tuple of a multisegment "
                            "(format: 'i,j=mult;i,j=mult;...')")
    p.add_argument("multisegment")
    p.add_argument("--n", type=_int_arg, default=None,
                   help="ambient n (default: largest right endpoint)")
    p.set_defaults(report=_dual_report)

    p = sub.add_parser("verify", parents=[sized],
                       help="cross-check the two support pipelines")
    p.add_argument("n", type=_int_arg)
    p.set_defaults(report=_verify_report)

    # no size cap: the table is closed-form counting, so no --max-n either
    p = sub.add_parser("asymptotics", parents=[formatted],
                       help="Motzkin vs Bell counting table")
    p.add_argument("max_n", type=_int_arg)
    p.set_defaults(report=lambda a: (_asymptotics_text(a.max_n, a.format), 0))

    return parser


#: Room for the 245 distinct argvs of the perfbench request stream, and a
#: bound on what arbitrary ``dual`` input can make a long process hold.
@lru_cache(maxsize=1024)
def _parse(argv: tuple[str, ...]) -> argparse.Namespace:
    """The shared, read-only namespace of argv."""
    return _build_parser().parse_args(argv)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"n={n} exceeds the size cap {cap}; "
                         f"pass --max-n {n} to override")


def _check_size(args) -> None:
    """Check n against the size cap of a sized subcommand and warn on
    stderr when --max-n raises the cap; raise ValueError on a usage
    error."""
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.max_n > DEFAULT_MAX_N:
        cost, bound = "cost", ""
        if args.command in ("expand", "verify"):
            cost = "expansion cost"
            if args.n >= 1:
                bound = (f": W and Z at n={args.n} have up to "
                         f"{_pairs(args.n):,} entries each")
        print(f"warning: size cap raised to {args.max_n}; {cost} grows "
              f"rapidly with n{bound}", file=sys.stderr)
    n = args.n
    if args.command == "dual":
        if n is not None and n < 1:
            raise ValueError("--n must be at least 1")
    elif n < 1:
        raise ValueError("n must be at least 1")
    else:
        _check_cap(n, args.max_n)


def main(argv=None) -> int:
    """Parse argv, run its subcommand's report and write the report with
    one write; the exit code of a usage error is 2, of an internal error 1."""
    try:
        args = _parse(tuple(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "report", None) is None:
        _build_parser().print_usage(sys.stderr)
        return 2
    try:
        if getattr(args, "sized", False):
            _check_size(args)
        text, code = args.report(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a broken invariant inside the expansion engine, not a usage error
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


def run() -> None:
    sys.exit(main())
