"""Record cli_golden.json: the exit code and stdout of every cli_mix argv.

Run from the repository root, at the commit whose CLI output the benchmark
holds later commits to:

    PYTHONPATH=src python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from run import child_env
from workloads import CLI_TEMPLATES, GOLDEN, run_cli, write_cli_configs

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    os.environ.update(child_env())  # the CLI runs as it does under run.py
    write_cli_configs(ROOT)
    golden = {}
    for variants in CLI_TEMPLATES:
        for argv in variants:
            code, out = run_cli(argv, ROOT)
            golden[" ".join(argv)] = {"exit": code, "stdout": out.decode()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
