"""Command-line surface: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from functools import lru_cache

import pytest

from lindeg.cli import main, quantum_label
from lindeg.combinatorics import Multisegment
from lindeg.expansion import canonical_coeffs
from lindeg.laurent import ONE, LaurentPoly, qbinom, qfact, qint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_2_text(capsys):
    code, out, err = run_cli(capsys, "expand", "2")
    assert code == 0
    assert out == (
        "expansion n=2: 2 terms\n"
        "y=(1)  segments=[1,1=2;1,2=1;2,2=2]  rank=(2)  coeff=1\n"
        "y=(0)  segments=[1,1=3;2,2=3]  rank=(3)  coeff=[3]!\n")
    assert err == ""


def test_expand_expanded_flag(capsys):
    code, out, _ = run_cli(capsys, "expand", "2", "--expanded")
    assert code == 0
    assert "coeff=v^3 + 2v + 2v^-1 + v^-3" in out


def test_expand_4_labels(capsys):
    code, out, _ = run_cli(capsys, "expand", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expansion n=4: 12 terms"
    assert "y=(1, 0, 1)" in lines[5] and "coeff=[4 choose 2]" in lines[5]
    assert "y=(0, 1, 0)" in lines[10] and "coeff=[4][3][2][2]" in lines[10]
    assert lines[12].endswith("coeff=[5]!")


def test_expand_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["terms"][0]["y"] == [1]
    assert doc["terms"][0]["coefficient"] == [[0, "1"]]
    assert doc["terms"][1]["coefficient"] == [
        [-3, "1"], [-1, "2"], [1, "2"], [3, "1"]]
    assert doc["terms"][1]["rank"] == {
        "n": 2, "r": [[1, 1, 3], [1, 2, 3], [2, 2, 3]]}
    assert doc["terms"][1]["multisegment"] == [[1, 1, 3], [2, 2, 3]]


def test_expand_csv(capsys):
    code, out, _ = run_cli(capsys, "expand", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["y", "multisegment", "rank", "coefficient"]
    assert len(rows) == 5
    assert rows[1][0] == "1 1"
    assert rows[1][2] == "3 2 3"


def test_motzkin_text(capsys):
    code, out, _ = run_cli(capsys, "motzkin", "3")
    assert code == 0
    assert out == ("motzkin n=3: 4 paths\n"
                   "(0, 0)\n(0, 1)\n(1, 0)\n(1, 1)\n")


def test_motzkin_json(capsys):
    code, out, _ = run_cli(capsys, "motzkin", "4", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["count"] == 9
    assert doc["paths"][0] == [0, 0, 0]


def test_supports_text(capsys):
    code, out, _ = run_cli(capsys, "supports", "3")
    assert code == 0
    assert out == ("supports n=3: 4 rank tuples (Motzkin number 4)\n"
                   "(3, 2, 3)\n(3, 3, 4)\n(4, 3, 3)\n(4, 4, 4)\n")


def test_supports_csv(capsys):
    code, out, _ = run_cli(capsys, "supports", "4", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["r_1_2", "r_1_3", "r_1_4", "r_2_3", "r_2_4", "r_3_4"]
    assert len(rows) == 10


def test_verify_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "4")
    assert code == 0
    assert "verify n=4: 9 supports (Motzkin number 9)" in out
    assert out.count("PASS") == 8  # 7 checks plus the result line
    assert "result: PASS (7/7 checks)" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "motzkin_count", "supports", "checks"}
    assert doc["motzkin_count"] == 4
    assert all(set(c) == {"name", "pass", "detail"} for c in doc["checks"])
    assert all(c["pass"] is True for c in doc["checks"])
    assert all(set(s) == {"n", "r"} for s in doc["supports"])


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "pass", "detail"]
    assert all(r[1] == "true" for r in rows[1:])


def test_dual_near_simple(capsys):
    code, out, err = run_cli(capsys, "dual", "1,1=2;1,2=1;2,2=2")
    assert code == 0
    assert out == ("dual n=2: 1,1=2;1,2=1;2,2=2\n"
                   "general: 1,1=3;1,2=2;2,2=3\n"
                   "near-simple: 1,1=3;1,2=2;2,2=3\n"
                   "match: yes\n")
    assert err == ""


def test_dual_long_segment(capsys):
    code, out, _ = run_cli(capsys, "dual", "1,3=1;2,2=1")
    assert code == 0
    assert "near-simple: n/a" in out


def test_dual_json(capsys):
    code, out, _ = run_cli(capsys, "dual", "1,1=2;1,2=1;2,2=2",
                           "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["match"] is True
    assert doc["general"]["r"] == [[1, 1, 3], [1, 2, 2], [2, 2, 3]]


def test_dual_mismatch_is_internal_error(capsys, monkeypatch):
    wrong_near_simple(monkeypatch)
    code, out, err = run_cli(capsys, "dual", "1,1=2;1,2=1;2,2=2")
    assert code == 1
    assert out.endswith("match: MISMATCH\n")
    assert err == ("internal error: the closed form disagrees with the "
                   "general duality formula\n")


def test_dual_empty_needs_n(capsys):
    code, _, err = run_cli(capsys, "dual", "")
    assert code == 2 and "needs an explicit --n" in err
    code, out, _ = run_cli(capsys, "dual", "", "--n", "2")
    assert code == 0
    assert "general: 1,1=0;1,2=0;2,2=0" in out


def test_dual_parse_error(capsys):
    code, _, err = run_cli(capsys, "dual", "1;2")
    assert code == 2 and "cannot parse" in err


@pytest.mark.parametrize("entry", ["1,1=1_0", "1,1=+2", "1,1=\u0661",
                                   "1_1,2=1", "1,+2=1", "1,2=0x1"])
def test_dual_reads_each_field_as_a_decimal_int(capsys, entry):
    # int() would read these as 10, 2, 1, 11, 2 and fail on 0x1; the
    # fields are read as LaurentPoly.from_pairs reads an int
    code, out, err = run_cli(capsys, "dual", entry)
    assert (code, out) == (2, "")
    assert err == (f"error: cannot parse multisegment entry {entry!r}; "
                   "expected i,j=mult\n")
    # blanks around a field are read as before
    code, out, _ = run_cli(capsys, "dual", " 1 , 2 = 3 ; 2,2=1")
    assert code == 0 and out.startswith("dual n=2: 1,2=3;2,2=1\n")


def test_asymptotics(capsys):
    code, out, _ = run_cli(capsys, "asymptotics", "4")
    assert code == 0
    assert out == ("n  motzkin  bell  ratio\n"
                   "1  1  1  1.0\n"
                   "2  2  2  1.0\n"
                   "3  4  5  0.8\n"
                   "4  9  15  0.6\n")


def test_asymptotics_csv(capsys):
    code, out, _ = run_cli(capsys, "asymptotics", "30", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "motzkin", "bell", "ratio"]
    assert len(rows) == 31
    assert rows[30][1] == "1697385471211"
    assert rows[30][2] == "846749014511809332450147"


def test_asymptotics_beyond_the_int_to_str_digit_limit(capsys):
    # B_398 has 641 digits; each format renders the same bytes at a lowered
    # limit as at the default one
    from lindeg import cli

    default = [run_cli(capsys, "asymptotics", "400", "--format", fmt)
               for fmt in ("text", "json", "csv")]
    assert all(code == 0 and err == "" for code, _, err in default)
    limit = sys.get_int_max_str_digits()
    cli._asymptotics_text.cache_clear()
    try:
        sys.set_int_max_str_digits(640)
        lowered = [run_cli(capsys, "asymptotics", "400", "--format", fmt)
                   for fmt in ("text", "json", "csv")]
    finally:
        sys.set_int_max_str_digits(limit)
        cli._asymptotics_text.cache_clear()
    assert lowered == default


def test_usage_errors(capsys):
    assert run_cli(capsys, "nonsense", "3")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "expand", "--bogus", "2")[0] == 2
    code, _, err = run_cli(capsys, "expand", "0")
    assert code == 2 and "n must be at least 1" in err
    code, _, err = run_cli(capsys, "verify", "9")
    assert code == 2 and "exceeds the size cap" in err
    code, _, err = run_cli(capsys, "asymptotics", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "motzkin", "5", "--max-n", "0")
    assert code == 2


USAGE = ("usage: lindeg [-h] {supports,expand,motzkin,dual,verify,asymptotics}"
         " ...\n")
SUBCOMMANDS = ("supports", "expand", "motzkin", "dual", "verify", "asymptotics")
#: the --max-n 9 warning of the subcommands that run no expansion, and of
#: expand and verify
CAP_WARNING = "warning: size cap raised to 9; cost grows rapidly with n"
EXPANSION_CAP_WARNING = ("warning: size cap raised to 9; expansion cost grows "
                         "rapidly with n")


def fresh_dual_cache(monkeypatch):
    """Serve ``dual`` from an empty cache of the same bound until the test
    ends, so that no report cached earlier hides a patched duality formula
    and no report computed under the patch outlives it."""
    from lindeg import cli

    bound = cli._dual_text.cache_parameters()["maxsize"]
    monkeypatch.setattr(cli, "_dual_text",
                        lru_cache(maxsize=bound)(cli._dual_text.__wrapped__))


def wrong_near_simple(monkeypatch):
    from lindeg import cli

    def wrong(m):
        return Multisegment(m.n, {(1, m.n): 1}).rank_tuple()

    fresh_dual_cache(monkeypatch)
    monkeypatch.setattr(cli, "dual_rank_tuple_near_simple", wrong)


def broken_solver(monkeypatch):
    from lindeg import supports

    def broken(n):
        raise ArithmeticError(f"bar-antisymmetry failed at n={n}")

    monkeypatch.setattr(supports, "canonical_coeffs", broken)


def no_expansion(monkeypatch):
    from lindeg import supports

    def refuse(n):
        raise AssertionError(f"the expansion ran at n={n}")

    monkeypatch.setattr(supports, "canonical_coeffs", refuse)


#: (argv, patch, exit code, stdout, stderr) of every error and warning path
ERROR_PATHS = [
    ([], None, 2, "", USAGE),
    (["expand", "--bogus", "2"], None, 2, "",
     USAGE + "lindeg: error: unrecognized arguments: --bogus\n"),
    (["supports", "x"], None, 2, "",
     "usage: lindeg supports [-h] [--format {text,json,csv}] [--max-n K] n\n"
     "lindeg supports: error: argument n: invalid int value: 'x'\n"),
    (["expand", "0"], None, 2, "", "error: n must be at least 1\n"),
    (["verify", "9"], None, 2, "",
     "error: n=9 exceeds the size cap 8; pass --max-n 9 to override\n"),
    (["motzkin", "5", "--max-n", "0"], None, 2, "",
     "error: --max-n must be at least 1\n"),
    (["dual", "1,1=1", "--n", "0"], None, 2, "",
     "error: --n must be at least 1\n"),
    (["dual", "1;2"], None, 2, "",
     "error: cannot parse multisegment entry '1'; expected i,j=mult\n"),
    (["dual", ""], None, 2, "",
     "error: empty multisegment needs an explicit --n\n"),
    (["dual", "1,9=1"], None, 2, "",
     "error: n=9 exceeds the size cap 8; pass --max-n 9 to override\n"),
    (["dual", "1,1=1", "--max-n", "0"], None, 2, "",
     "error: --max-n must be at least 1\n"),
    (["asymptotics", "0"], None, 2, "", "error: max_n must be at least 1\n"),
    (["motzkin", "2", "--max-n", "9"], None, 0,
     "motzkin n=2: 2 paths\n(0)\n(1)\n", CAP_WARNING + "\n"),
    (["expand", "2", "--max-n", "9"], None, 0,
     "expansion n=2: 2 terms\n"
     "y=(1)  segments=[1,1=2;1,2=1;2,2=2]  rank=(2)  coeff=1\n"
     "y=(0)  segments=[1,1=3;2,2=3]  rank=(3)  coeff=[3]!\n",
     EXPANSION_CAP_WARNING + ": W and Z at n=2 have up to 3 entries each\n"),
    (["verify", "10", "--max-n", "9"], no_expansion, 2, "",
     EXPANSION_CAP_WARNING
     + ": W and Z at n=10 have up to 153,090,000 entries each\n"
     "error: n=10 exceeds the size cap 9; pass --max-n 10 to override\n"),
    (["verify", "0", "--max-n", "9"], None, 2, "",
     EXPANSION_CAP_WARNING + "\nerror: n must be at least 1\n"),
    (["dual", "1,1=1", "--max-n", "9"], None, 0,
     "dual n=1: 1,1=1\ngeneral: 1,1=1\nnear-simple: 1,1=1\nmatch: yes\n",
     CAP_WARNING + "\n"),
    (["dual", "1,1=2;1,2=1;2,2=2"], wrong_near_simple, 1,
     "dual n=2: 1,1=2;1,2=1;2,2=2\n"
     "general: 1,1=3;1,2=2;2,2=3\n"
     "near-simple: 1,1=1;1,2=1;2,2=1\n"
     "match: MISMATCH\n",
     "internal error: the closed form disagrees with the general duality "
     "formula\n"),
    (["verify", "3"], broken_solver, 1, "",
     "internal error: bar-antisymmetry failed at n=3\n"),
]


@pytest.mark.parametrize("argv,patch,code,out,err", ERROR_PATHS,
                         ids=[" ".join(case[0]) or "<none>"
                              for case in ERROR_PATHS])
def test_error_paths_exactly(capsys, monkeypatch, argv, patch, code, out,
                             err):
    if patch is not None:
        patch(monkeypatch)
    # twice in one process: a failed parse is not cached, and the warnings
    # of a cached parse, the errors of a refused dual and the internal error
    # of a cached dual mismatch are printed again
    assert run_cli(capsys, *argv) == (code, out, err)
    assert run_cli(capsys, *argv) == (code, out, err)


def test_parse_cache_is_bounded(capsys):
    from lindeg import cli

    misses = cli._parse.cache_info().misses
    for k in range(1, 1101):
        assert run_cli(capsys, "dual", f"1,1={k}")[0] == 0
    info = cli._parse.cache_info()
    assert info.misses - misses == 1100
    assert info.currsize <= 1024
    assert cli._dual_text.cache_info().currsize <= 1024


@pytest.mark.parametrize("argv,name,text", [
    (["motzkin", "+3"], "n", "+3"),
    (["motzkin", "٣"], "n", "٣"),  # ARABIC-INDIC DIGIT THREE
    (["motzkin", "1_0"], "n", "1_0"),
    (["expand", " 2"], "n", " 2"),
    (["verify", "+2"], "n", "+2"),
    (["supports", "2", "--max-n", "+9"], "--max-n", "+9"),
    (["dual", "1,1=1", "--n", "1_0"], "--n", "1_0"),
    (["asymptotics", "３"], "max_n", "３"),  # FULLWIDTH DIGIT THREE
])
def test_integer_arguments_are_plain_decimals(capsys, argv, name, text):
    # every integer argument is read as LaurentPoly.from_pairs reads an int
    # and as the multisegment fields are: an optional '-' and ASCII digits
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument {name}: invalid int value: {text!r}\n")


def test_unknown_subcommand_exactly(capsys):
    # argparse quotes the choices up to 3.11 and not in later releases
    message = (USAGE + "lindeg: error: argument command: invalid choice: "
               "'nonsense' (choose from ")
    assert run_cli(capsys, "nonsense", "3") in {
        (2, "", message + ", ".join(map(repr, SUBCOMMANDS)) + ")\n"),
        (2, "", message + ", ".join(SUBCOMMANDS) + ")\n")}


class CountingWriter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_one_stdout_write_per_request(monkeypatch, fmt):
    for argv in (["supports", "3"], ["motzkin", "3"], ["expand", "2"],
                 ["expand", "2", "--expanded"], ["verify", "4"],
                 ["dual", "1,1=2;1,2=1;2,2=2"], ["dual", "1,3=1;2,2=1"],
                 ["asymptotics", "4"]):
        for _ in range(2):  # cold or warm
            writer = CountingWriter()
            monkeypatch.setattr(sys, "stdout", writer)
            assert main([*argv, "--format", fmt]) == 0
            assert writer.writes == 1 and writer.getvalue(), argv


def test_max_n_override_warns(capsys):
    code, out, err = run_cli(capsys, "motzkin", "9", "--max-n", "9")
    assert code == 0
    # motzkin runs no expansion, so its warning names no expansion cost
    assert err == CAP_WARNING + "\n"
    assert len(out.splitlines()) == 1 + 835  # header plus Motzkin number 9


def test_explicit_default_cap_is_no_flag(capsys):
    for argv in (["supports", "8"], ["motzkin", "8"], ["expand", "3"],
                 ["verify", "3"], ["dual", "1,2=2;3,5=1;4,8=3;6,6=1"],
                 ["supports", "9"], ["dual", "1,9=1"], ["expand", "0"]):
        for fmt in ("text", "json", "csv"):
            argv = [*argv, "--format", fmt]
            plain = run_cli(capsys, *argv)
            assert run_cli(capsys, *argv, "--max-n", "8") == plain, argv
            assert "warning" not in plain[2]


def test_help_texts_exactly(capsys, monkeypatch):
    # SHA-256 over the --help output of lindeg and of each subcommand in
    # turn, at 80 columns; the same on Python 3.10 to 3.13
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in [[], *([command] for command in SUBCOMMANDS)]:
        code, out, err = run_cli(capsys, *argv, "--help")
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "ef4947dac7a99cee023c8cf2d4c55d60663734c07788d1f145b151f800f65b61")


def test_max_n_warning_states_solve_cost(capsys, monkeypatch):
    from lindeg import cli

    def passing(n):  # stands in for the minutes-long verify 8
        return {"n": n, "motzkin_count": 0, "supports": [], "checks": []}

    monkeypatch.setattr(cli, "verify_supports", passing)
    code, _, err = run_cli(capsys, "verify", "8", "--max-n", "9")
    assert code == 0
    assert err == ("warning: size cap raised to 9; expansion cost grows "
                   "rapidly with n: W and Z at n=8 have up to 486,000 "
                   "entries each\n")


def test_asymptotics_has_no_size_cap_option(capsys):
    # --max-n used to land on the positional max_n and change the table
    code, out, err = run_cli(capsys, "asymptotics", "3", "--max-n", "5")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --max-n 5" in err
    code, out, err = run_cli(capsys, "asymptotics", "3")
    assert code == 0 and err == ""
    assert out == ("n  motzkin  bell  ratio\n"
                   "1  1  1  1.0\n"
                   "2  2  2  1.0\n"
                   "3  4  5  0.8\n")
    code, out, err = run_cli(capsys, "asymptotics", "0")
    assert (code, out, err) == (2, "", "error: max_n must be at least 1\n")


def test_repeated_requests_share_one_parser(capsys):
    from lindeg import cli

    assert cli._build_parser() is cli._build_parser()
    first = run_cli(capsys, "motzkin", "4")
    hits = cli._parse.cache_info().hits
    assert run_cli(capsys, "motzkin", "4") == first
    assert cli._parse.cache_info().hits == hits + 1  # parsed only once
    assert cli._parse(("motzkin", "4")) is cli._parse(("motzkin", "4"))
    code, out, err = run_cli(capsys, "expand", "--bogus", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --bogus" in err
    code, out, err = run_cli(capsys, "motzkin", "3")
    assert (code, err) == (0, "")
    assert out == ("motzkin n=3: 4 paths\n"
                   "(0, 0)\n(0, 1)\n(1, 0)\n(1, 1)\n")
    code, out, err = run_cli(capsys, "asymptotics", "2", "--format", "csv")
    assert (code, err) == (0, "")
    assert out == "n,motzkin,bell,ratio\n1,1,1,1.0\n2,2,2,1.0\n"
    code, out, err = run_cli(capsys, "motzkin", "2", "--max-n", "9")
    assert code == 0
    assert out == "motzkin n=2: 2 paths\n(0)\n(1)\n"
    assert err == CAP_WARNING + "\n"
    code, out, err = run_cli(capsys, "motzkin", "3")
    assert (code, err) == (0, "")  # no option leaks into the next request
    assert out.startswith("motzkin n=3: 4 paths\n")
    code, out, err = run_cli(capsys, "motzkin", "9")
    assert code == 2 and "exceeds the size cap 8" in err


def test_byte_identical_reruns(capsys):
    for argv in (["expand", "4"], ["verify", "3", "--format", "json"],
                 ["supports", "4", "--format", "csv"],
                 ["asymptotics", "6"], ["motzkin", "5"]):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_warm_supports_makes_no_rank_from_motzkin_call(capsys, monkeypatch):
    # nor a tup call: the warm text is not rendered again
    from lindeg import cli, supports

    ranks, lines = [], []
    motzkin_rank, tup = supports._motzkin_rank, cli.tup

    def counting_rank(n, x):
        ranks.append(x)
        return motzkin_rank(n, x)

    def counting_tup(values):
        lines.append(values)
        return tup(values)

    monkeypatch.setattr(supports, "_motzkin_rank", counting_rank)
    monkeypatch.setattr(cli, "tup", counting_tup)
    cli._supports_text.cache_clear()
    try:
        cold = run_cli(capsys, "supports", "8")
        assert len(ranks) == len(lines) == 323  # one per Motzkin path
        ranks.clear()
        lines.clear()
        assert run_cli(capsys, "supports", "8") == cold
        assert ranks == lines == []
    finally:
        cli._supports_text.cache_clear()


def test_warm_expand_makes_no_quantum_label_call(capsys, monkeypatch):
    from lindeg import cli

    calls = []

    def counting(p):
        calls.append(p)
        return quantum_label(p)

    monkeypatch.setattr(cli, "quantum_label", counting)
    cli._expand_text.cache_clear()
    try:
        cold = run_cli(capsys, "expand", "5")
        assert len(calls) == 36
        calls.clear()
        assert run_cli(capsys, "expand", "5") == cold
        assert calls == []
    finally:
        cli._expand_text.cache_clear()


#: Requests answered from a text rendered once per process.
CACHED_REQUESTS = (
    [["supports", str(k)] for k in range(1, 9)]
    + [["motzkin", str(k)] for k in range(1, 9)]
    + [["expand", str(k)] + flag for k in range(1, 6)
       for flag in ([], ["--expanded"])]
    + [["asymptotics", str(m)] for m in (1, 7, 60)]
    + [["dual", "1,1=2;1,2=1;2,2=2"], ["dual", "1,3=1;2,2=1"],
       ["dual", "1,2=2;3,5=1;4,8=3;6,6=1", "--n", "8"],
       ["dual", "", "--n", "2"]])


def clear_every_cache():
    """Drop every per-process result behind the cached reports."""
    from lindeg import cli, combinatorics, expansion

    for cached in (cli._parse, cli._supports_text, cli._motzkin_text,
                   cli._expand_text, cli._asymptotics_text, cli._dual_text,
                   combinatorics._motzkin_paths, expansion.canonical_coeffs):
        cached.cache_clear()


def test_warm_reports_equal_cold_reports(capsys):
    for fmt in ("text", "json", "csv"):
        for argv in CACHED_REQUESTS:
            argv = [*argv, "--format", fmt]
            clear_every_cache()
            cold = run_cli(capsys, *argv)
            assert cold[0] == 0 and cold[2] == "", argv
            assert run_cli(capsys, *argv) == cold, argv


def test_reports_leave_their_namespace_unchanged(capsys):
    # a parsed namespace is shared by every request with its argv
    from lindeg import cli

    requests = [["supports", "3"], ["motzkin", "3"], ["expand", "2"],
                ["expand", "2", "--expanded"], ["verify", "3"],
                ["dual", "1,1=2;1,2=1;2,2=2"], ["dual", "1,3=1", "--n", "4"],
                ["asymptotics", "5"]]
    requests += [argv + ["--max-n", "9"] for argv in requests[:-1]]
    for fmt in ("text", "json", "csv"):
        for argv in requests:
            argv = (*argv, "--format", fmt)
            for _ in range(2):
                assert run_cli(capsys, *argv)[0] == 0, argv
            fresh = cli._build_parser().parse_args(argv)
            assert vars(cli._parse(argv)) == vars(fresh), argv


def test_cached_reports_are_strings():
    # immutable, so no caller can change a cached report
    from lindeg import cli

    for fmt in ("text", "json", "csv"):
        calls = ([(cli._supports_text, (k, fmt)) for k in range(1, 9)]
                 + [(cli._motzkin_text, (k, fmt)) for k in range(1, 9)]
                 + [(cli._expand_text, (k, fmt, expanded))
                    for k in range(1, 6) for expanded in (False, True)]
                 + [(cli._asymptotics_text, (m, fmt)) for m in (1, 7, 60)])
        for cached, args in calls:
            text = cached(*args)
            assert type(text) is str and cached(*args) is text, args
        for ms in ("1,1=2;1,2=1;2,2=2", "1,3=1;2,2=1"):
            report = cli._dual_text(ms, None, fmt, 8)
            assert type(report) is tuple and type(report[0]) is str
            assert report[1] == 0
            assert cli._dual_text(ms, None, fmt, 8) is report


def test_verify_runs_its_checks_on_every_request(capsys, monkeypatch):
    from lindeg import cli

    calls = []
    verify = cli.verify_supports

    def counting(n):
        calls.append(n)
        return verify(n)

    monkeypatch.setattr(cli, "verify_supports", counting)
    first = run_cli(capsys, "verify", "4")
    assert run_cli(capsys, "verify", "4") == first
    assert calls == [4, 4]


def test_dual_computes_once_per_distinct_request(capsys, monkeypatch):
    from lindeg import cli

    calls = []
    general = cli.dual_rank_tuple_general

    def counting(m):
        calls.append(m)
        return general(m)

    fresh_dual_cache(monkeypatch)
    monkeypatch.setattr(cli, "dual_rank_tuple_general", counting)
    requests = [["dual", "1,1=2;1,2=1;2,2=2"],
                ["dual", "1,1=2;1,2=1;2,2=2", "--format", "json"],
                ["dual", "1,3=1", "--n", "4", "--format", "csv"]]
    for argv in requests:
        cold = run_cli(capsys, *argv)
        assert cold[0] == 0 and cold[1] and cold[2] == "", argv
        assert run_cli(capsys, *argv) == cold, argv
    assert len(calls) == len(requests)
    # the size cap is part of the key, and a refusal is not cached
    refused = (2, "", "error: n=9 exceeds the size cap 8; "
                      "pass --max-n 9 to override\n")
    assert run_cli(capsys, "dual", "1,9=1") == refused
    assert run_cli(capsys, "dual", "1,9=1") == refused
    code, out, err = run_cli(capsys, "dual", "1,9=1", "--max-n", "9")
    assert code == 0 and out.startswith("dual n=9: 1,9=1\n")
    assert err == CAP_WARNING + "\n"
    assert run_cli(capsys, "dual", "1,9=1") == refused
    assert len(calls) == len(requests) + 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lindeg", "motzkin", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "motzkin n=2: 2 paths\n(0)\n(1)\n"


def test_quantum_label():
    assert quantum_label(LaurentPoly()) == "0"
    assert quantum_label(qfact(0)) == "1"
    assert quantum_label(qfact(3)) == "[3]!"
    assert quantum_label(qfact(5)) == "[5]!"
    assert quantum_label(qint(4) * qint(3) * qint(3)) == "[4][3][3]"
    assert quantum_label(qint(2) * qint(2)) == "[2][2]"
    assert quantum_label(qbinom(4, 2)) == "[4 choose 2]"
    assert quantum_label(qbinom(6, 3)) == "[6 choose 3]"
    # [k]! is the run k, k-1, ..., 2 of the quantum-integer pass, and only
    # a run that ends at 2 is a factorial
    for k in range(2, 13):
        assert quantum_label(qfact(k)) == f"[{k}]!"
    assert quantum_label(qint(2)) == "[2]!"
    assert quantum_label(qint(5) * qint(4) * qint(3)) == "[5][4][3]"
    assert quantum_label(qint(4) * qint(3) * qint(2) ** 2) == "[4][3][2][2]"
    # not a quantum symbol: falls back to the expanded rendering
    assert quantum_label(LaurentPoly({1: 1, 0: 1})) == "v + 1"
    assert quantum_label(LaurentPoly({-2: 3})) == "3v^-2"


def test_quantum_labels_of_canonical_coefficients():
    # every label for n <= 6 reads back as its coefficient, and the labels
    # equal those recorded when each factor was divided out twice (a
    # divisibility test, then the division): SHA-256 over
    # repr((n, y, label)) in canonical_coeffs order
    def read_back(label):
        if label.endswith("!"):
            return qfact(int(label[1:-2]))
        if " choose " in label:
            a, b = label[1:-1].split(" choose ")
            return qbinom(int(a), int(b))
        if label.startswith("["):
            return math.prod((qint(int(k)) for k in label[1:-1].split("][")),
                             start=ONE)
        return None

    digest = hashlib.sha256()
    for n in range(1, 7):
        for y, c in canonical_coeffs(n).items():
            label = quantum_label(c)
            assert read_back(label) == c or label == str(c), (n, y, label)
            digest.update(repr((n, y, label)).encode())
    assert digest.hexdigest() == (
        "2803b214add114262bdca099d5836f22083f02eabac1506202d0f17b04a48f4d")


def test_solver_arithmetic_error_is_internal_error(capsys, monkeypatch):
    broken_solver(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "3")
    assert code == 1
    assert out == ""
    assert err == "internal error: bar-antisymmetry failed at n=3\n"
