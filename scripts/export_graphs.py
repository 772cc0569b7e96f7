#!/usr/bin/env python3
"""Export the showcase graphs as Graphviz files.

Writes one .dot file per graph into the output directory (default
./graphs): the six-vertex graph of 12321, the five-vertex line of
21321, the octagon of 1214, the distant hexagon of 246, the disjoint
square of 121343, and both forms of the rank-4 longest element.
"""

from __future__ import annotations

import argparse
import pathlib

from rexcalc.rexgraph import graph_for_word, to_dot
from rexcalc.symgroup import longest_element

SHOWCASE = [
    ("rex_12321", (1, 2, 3, 2, 1), None, "expanded"),
    ("conflated_12321", (1, 2, 3, 2, 1), None, "conflated"),
    ("rex_21321", (2, 1, 3, 2, 1), None, "expanded"),
    ("octagon_1214", (1, 2, 1, 4), None, "expanded"),
    ("hexagon_246", (2, 4, 6), None, "expanded"),
    ("square_121343", (1, 2, 1, 3, 4, 3), None, "conflated"),
    ("rex_longest_s4", longest_element(4), 4, "expanded"),
    ("cycle_longest_s4", longest_element(4), 4, "conflated"),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="graphs", type=pathlib.Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for name, word, rank, kind in SHOWCASE:
        rex, conf = graph_for_word(word, rank=rank)
        graph = rex if kind == "expanded" else conf
        target = args.out / f"{name}.dot"
        target.write_text("\n".join(to_dot(graph)) + "\n")
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
