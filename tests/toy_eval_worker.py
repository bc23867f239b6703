"""Launch ``repro eval-worker`` with the toy evaluator plugin registered.

    python tests/toy_eval_worker.py --connect HOST:PORT [eval-worker options]

Socket workers build evaluators from specs through the evaluator registry,
so a worker serving a plugin type has to import the plugin first: this
module imports ``executor_conformance`` (which registers ``"toy"``) and then
runs the ordinary eval-worker command.
"""

import sys

import executor_conformance  # noqa: F401  (registers the "toy" evaluator type)
from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["eval-worker", *sys.argv[1:]]))
