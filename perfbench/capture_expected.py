#!/usr/bin/env python3
"""Record the expected exit code and stdout digest of every fixed task.

Usage, from the root of a checkout:

    python3 perfbench/capture_expected.py

Runs each fixed task of ``bench.py`` under three ``PYTHONHASHSEED`` values,
refuses to write anything if the outputs differ between them, and writes
``perfbench/expected.json``.  Run it only when a change to the CLI's output
is intended; the benchmark compares every run against this file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from hashlib import sha256

import bench

HASH_SEEDS = ("0", "1", "2")


def capture(text: str) -> dict:
    seen = set()
    for seed in HASH_SEEDS:
        env = dict(bench.child_env(), PYTHONHASHSEED=seed)
        proc = subprocess.run(bench.cli_cmd(text.split()), cwd=bench.ROOT, env=env, capture_output=True)
        seen.add((proc.returncode, sha256(proc.stdout).hexdigest()))
    if len(seen) != 1:
        raise SystemExit(f"{text}: output depends on PYTHONHASHSEED: {sorted(seen)}")
    (code, digest), = seen
    return {"exit": code, "sha256": digest}


def main() -> int:
    expected = {}
    for _, _, tasks in bench.FIXED.values():
        for text in tasks:
            expected[text] = capture(text)
            print(f"{expected[text]['exit']} {expected[text]['sha256'][:12]} {text}", flush=True)
    with open(bench.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
