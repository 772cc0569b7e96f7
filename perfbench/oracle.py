"""Seeded ``eval`` tasks for the cli-mix workload, with their expected output.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/oracle.py SEED COUNT

Prints a JSON list of COUNT tasks.  Each has the CLI arguments of one
``rexcalc eval`` call (a conflated path on 12321, 23121 or 12312 written
with the s/c/t aliases, applied to small integer-coefficient slot
polynomials) and the JSON document the call must print.

The expected image is computed independently of the CLI's conflated step
matrices: the path is lifted to the expanded graph with
``lift_conflated_path`` and the public ``apply_edge`` is chained along the
lift, one braid move at a time.
"""

from __future__ import annotations

import json
import random
import sys

from rexcalc import (
    CONFLATED,
    Path,
    apply_edge,
    braid_moves,
    from_tensor,
    graph_for_word,
    lift_conflated_path,
    parse_polynomial,
    source_sink,
)

RANK = 4
ELEMENTS = ((1, 2, 3, 2, 1), (2, 3, 1, 2, 1), (1, 2, 3, 1, 2))
MAX_STEPS = 6


def label(word) -> str:
    return "".join(map(str, word))


def random_slot(rng: random.Random) -> str:
    """A polynomial of at most two terms, degree at most 2, coefficients in -3..3."""
    if rng.random() < 0.4:
        return "1"
    chunks = []
    for _ in range(rng.randint(1, 2)):
        coeff = rng.choice((-3, -2, -1, 1, 2, 3))
        variables = [f"x{rng.randint(1, RANK)}" for _ in range(rng.randint(0, 2))]
        body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 or not variables else []) + variables)
        sign = "-" if coeff < 0 else "+"
        chunks.append(f"{sign} {body}" if chunks else f"-{body}" if coeff < 0 else body)
    return " ".join(chunks)


def seeded_tasks(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    tasks = []
    for _ in range(count):
        rex, conf = graph_for_word(rng.choice(ELEMENTS), RANK)
        s, t = source_sink(conf)
        (middle,) = [c for c in conf.clouds if c not in (s, t)]
        alias = {s: "s", middle: "c", t: "t"}
        walk = [rng.choice((s, middle, t))]
        for _ in range(rng.randint(1, MAX_STEPS)):
            walk.append(rng.choice(conf.neighbors(walk[-1])))
        start = walk[0].representative
        slots = [random_slot(rng) for _ in range(len(start) + 1)]

        element = from_tensor(start, [parse_polynomial(p, RANK) for p in slots], RANK)
        lifted = lift_conflated_path(conf, rex, Path(CONFLATED, tuple(c.representative for c in walk)))
        image = element
        for u, v in zip(lifted.vertices, lifted.vertices[1:]):
            move = next(m for m, w in braid_moves(u) if w == v)
            image = apply_edge(image, move)
        tasks.append(
            {
                "argv": [
                    "eval",
                    label(start),
                    "--path",
                    ",".join(alias[c] for c in walk),
                    # the = form, since a slot list may start with a minus sign
                    "--element=" + ",".join(slots),
                    "--format",
                    "json",
                ],
                "expect": {
                    "path": [list(c.representative) for c in walk],
                    "element": element.to_json(),
                    "image": image.to_json(),
                },
            }
        )
    return tasks


if __name__ == "__main__":
    json.dump(seeded_tasks(int(sys.argv[1]), int(sys.argv[2])), sys.stdout)
