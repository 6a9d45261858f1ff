"""One SHA-256 over the stdout of every CLI request shape in every format.

The digest was recorded before rank tuples were stored as value tuples, so
it pins the text, JSON and CSV bytes across that change, including n = 1
and n = 2, where the off-diagonal is empty or a single entry.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from lindeg.cli import main

FORMATS = ("text", "json", "csv")


def _dual_pool():
    """The multisegment pool per k of the benchmark's query stream."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "stream.py"
    spec = importlib.util.spec_from_file_location("_perfbench_stream", path)
    stream = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stream)
    return {k: stream.dual_pool(k) for k in range(1, stream.MAX_K + 1)}


def _requests():
    reqs = [[cmd, str(k)] for cmd in ("supports", "motzkin")
            for k in range(1, 9)]
    reqs += [["verify", str(k)] for k in range(1, 7)]
    reqs += [["expand", str(k)] + flag for k in range(1, 6)
             for flag in ([], ["--expanded"])]
    reqs += [["dual", ms, "--n", str(k)]
             for k, pool in _dual_pool().items() for ms in pool]
    return [argv + ["--format", fmt] for argv in reqs for fmt in FORMATS]


def test_stdout_digest_of_every_request_shape():
    digest = hashlib.sha256()
    for argv in _requests():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        digest.update(repr((argv, code, buf.getvalue())).encode())
    assert digest.hexdigest() == (
        "bc04ff9ff34835dcd956d084ef4fe7bfb9edd81752550d3e16f3836b1aa1348c")
