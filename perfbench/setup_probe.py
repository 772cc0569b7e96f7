"""Cold set-up of a workload's elements, through public names only.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/setup_probe.py RANK WORD [WORD ...]

Imports ``rexcalc`` and, for each word (``e`` for the empty word), builds
the expanded and conflated graphs and the braid-move matrix tables of the
conflated edges.  It stops before any path is composed or searched, so its
wall time from launch to exit is what a fresh CLI process pays before it
can start answering.
"""

from __future__ import annotations

import sys

from rexcalc import ConflatedMorphisms, graph_for_word


def parse_word(text: str) -> tuple[int, ...]:
    return () if text == "e" else tuple(int(ch) for ch in text)


def main() -> int:
    rank = int(sys.argv[1])
    for text in sys.argv[2:]:
        rex, conf = graph_for_word(parse_word(text), rank)
        tables = ConflatedMorphisms(rex, conf)
        if len(tables.forward) != len(conf.edges):
            print(f"{text}: {len(tables.forward)} tables for {len(conf.edges)} edges", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
