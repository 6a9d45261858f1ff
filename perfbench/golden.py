"""Record the golden output of every request the benchmark can send.

    python3 perfbench/golden.py

Runs each request of ``stream.universe()`` once in this process through
the same capture as the worker and writes its exit code and stdout
SHA-256 to golden.json, with the commit they were taken from.  Run it only
when the CLI output is meant to change; it takes over a minute because
the universe includes ``verify 7``.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, SRC, source_commit
from stream import universe
from worker import run_cli


def main():
    sys.path.insert(0, str(SRC))
    from lindeg.cli import main as cli_main

    digests = {}
    for argv in universe():
        code, digest, _, _ = run_cli(cli_main, argv)
        digests[" ".join(argv)] = {"exit": code, "sha256": digest}
    GOLDEN.write_text(json.dumps({"commit": source_commit(),
                                  "digests": digests}, indent=1) + "\n")
    print(f"{len(digests)} digests written to {GOLDEN}")


if __name__ == "__main__":
    main()
