"""Re-record ``cli_corpus.jsonl``, the corpus ``tests/test_cli_corpus.py`` replays.

    PYTHONPATH=src python tests/golden/make_cli_corpus.py

The inputs already in the corpus are replayed and their results written
back; the inputs themselves never change here.  They are the 400
``cli-small`` inputs of ``perfbench/workloads.py`` at seed 1, each with the
subcommands that workload runs on it, then four extra inputs: the n = 6
matrix with every off-diagonal entry 6 (run through ``check``, ``hull`` and
``vertices`` only), the one-point input
``{"nu": [[0, 1000000, 0], [1000000, 0, 0], [0, 0, 0]]}``, a 257 x 257
zero matrix and a one-vertex list of 257 coordinates.  Review the diff
before committing: an entry may change only with a documented change of
behaviour.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_cli_corpus import CORPUS, replay  # noqa: E402


def main() -> None:
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for entry in entries:
            entry["runs"] = [replay(entry["input"], run["argv"]) for run in entry["runs"]]
        os.chdir(home)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
