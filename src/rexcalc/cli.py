"""Command-line front end: graph export, morphism evaluation, verification.

Exit codes: 0 all verdicts as expected, 1 unexpected mathematical
verdict, 2 usage error, 3 resource budget exceeded or memory exhausted,
4 internal error (a failed table check or a broken graph or pool
invariant, reported as ``internal error: ...`` on stderr with no
traceback).  ``verify --budget`` (default ``fpc.DEFAULT_BUDGET``) caps
the number of distinct morphism matrices a search may hold, and is the
only setting of it.  A budget below 1, a rank outside 1..MAX_RANK, a
word longer than MAX_WORD_LENGTH letters, an element with more than
``symgroup.MAX_REDUCED_WORDS`` reduced words, and a ``verify`` option
that the chosen suite does not read are usage errors.  Each ``verify``
suite is one row of ``SUITES``, its runner and the options it reads;
``_emit`` writes every report and every text or DOT graph.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, islice

from . import fpc
from .braidmor import path_morphism
from .bsbimod import BSElement, from_tensor
from .polyring import MAX_INPUT_TERMS, parse_polynomial
from .rexgraph import (
    CONFLATED,
    EXPANDED,
    ConflatedGraph,
    Path,
    RexGraph,
    build_conflated,
    build_rex_graph,
    cloud_aliases,
    lift_conflated_path,
    to_dot,
    word_label,
)
from .symgroup import Word, is_reduced, word_to_perm

# the largest rank any command accepts: the cost of a rank-n element grows
# with n^2 before any graph is built; 11 admits README's 1,2,10
MAX_RANK = 11
# the longest reduced word at rank MAX_RANK, that of its longest element
MAX_WORD_LENGTH = MAX_RANK * (MAX_RANK - 1) // 2

# lines per write of text or DOT output: a long text is never held whole in memory
TEXT_PIECE_LINES = 4096

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SHAPE_DISPLAY = {
    fpc.DOT: "*",
    fpc.LINE2: "*->*",
    fpc.LINE3: "*->*->*",
    fpc.CYCLE8: "Zam",
}


class UsageError(ValueError):
    pass


def parse_word(text: str) -> Word:
    text = text.strip()
    if not text or text in ("e", "-"):
        return ()
    if "," in text:
        parts = text.split(",")
    else:
        parts = list(text)
    if len(parts) > MAX_WORD_LENGTH:
        raise UsageError(f"a word of {len(parts):,} letters is longer than any reduced word ({MAX_WORD_LENGTH})")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        quoted = repr(text) if len(text) <= 32 else f"{text[:32]!r}... ({len(text):,} characters)"
        raise UsageError(f"cannot parse word {quoted}")


def _check_rank(rank: int) -> None:
    if not 1 <= rank <= MAX_RANK:
        raise UsageError(f"rank {rank} is outside the supported range 1..{MAX_RANK}")


def _resolve_config(args) -> tuple[Word, int]:
    """The reduced word of ``args.word`` and the rank it is read in."""
    word = parse_word(args.word)
    rank = args.rank or (max(word) + 1 if word else 2)
    _check_rank(rank)
    if any(not 1 <= l <= rank - 1 for l in word):
        raise UsageError(f"letters of {word_label(word)} out of range for rank {rank}")
    if not is_reduced(word, rank):
        raise UsageError(f"word {word_label(word)} is not reduced")
    return word, rank


def _cloud_representative(conf: ConflatedGraph, word: Word) -> Word:
    try:
        return conf.cloud(word).representative
    except KeyError:
        raise UsageError(f"{word_label(word)} is not a reduced word of this element") from None


def parse_path_spec(spec: str, rex: RexGraph, conf: ConflatedGraph) -> Path:
    """Vertices split on ``->`` if the spec has one, else on commas; s/t/c name conflated clouds.

    ``e`` is the empty word, as in every other word argument.  Reduced
    words that are no walk of braid moves, but whose clouds form a walk of
    links, are that conflated path; other reduced words an expanded path.
    """
    raw = [tok.strip() for tok in spec.split("->" if "->" in spec else ",") if tok.strip()]
    if not raw:
        raise UsageError("empty path spec")
    is_alias = [tok.isalpha() and tok != "e" for tok in raw]
    if any(is_alias):
        aliases = cloud_aliases(conf)
        vertices = []
        for tok, alias in zip(raw, is_alias):
            if alias:
                if tok not in aliases:
                    raise UsageError(f"alias {tok!r} undefined for this element")
                vertices.append(aliases[tok])
            else:
                vertices.append(_cloud_representative(conf, parse_word(tok)))
        return Path(CONFLATED, tuple(vertices))
    vertices = [parse_word(tok) for tok in raw]
    if all(v in rex.adjacency for v in vertices):
        reps = [conf.cloud(v).representative for v in vertices]
        moves = all(v in dict(rex.adjacency[u]) for u, v in zip(vertices, vertices[1:]))
        if not moves and all(b in conf.links[a] for a, b in zip(reps, reps[1:])):
            return Path(CONFLATED, tuple(reps))
        return Path(EXPANDED, tuple(vertices))
    return Path(CONFLATED, tuple(_cloud_representative(conf, v) for v in vertices))


def parse_element_spec(spec: str, word: Word, rank: int) -> BSElement:
    slots = [parse_polynomial(tok.strip() or "1", rank) for tok in spec.split(",")]
    if len(slots) != len(word) + 1:
        raise UsageError(
            f"element needs {len(word) + 1} slot polynomials for {word_label(word)}, got {len(slots)}"
        )
    # the normal form and its image can hold the product of the slot sizes
    size = math.prod(len(p.terms) for p in slots)
    if size > MAX_INPUT_TERMS:
        raise UsageError(
            f"the slot term counts multiply to {size}, above the input term limit {MAX_INPUT_TERMS}"
        )
    return from_tensor(word, slots, rank)


def _int_list(word: Word, newline: str) -> str:
    """json.dumps(list(word), indent=2) for a list that ``newline`` indents as a nested one."""
    if not word:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(map(str, word)) + newline + "]"


def write_graph_json(word: Word, graph: RexGraph | ConflatedGraph, out) -> None:
    """Write the JSON of ``graph WORD [--conflated] --format json`` to ``out``, piece by piece.

    The bytes are those of json.dumps(payload, indent=2, sort_keys=True)
    and a newline, for the v1 payload {"edges": [{"kind", "source",
    "target"}, ...], "element", "vertices": [word, ...]} of an expanded
    graph, or {"edges": [{"source", "target"}, ...], "element",
    "vertices": [[word, ...], ...]} of a conflated one, whose edges join
    cloud representatives and whose vertices list each cloud's members.
    Neither the payload nor the whole text is built: each edge is written
    from the texts of its two words, each built once.
    """
    if isinstance(graph, RexGraph):
        in_edge = {w: _int_list(w, "\n      ") for w in graph.words}
        edges = ((f'"kind": "{m.kind}",\n      ', u, v) for u, v, m in graph.edges)
        vertices = (_int_list(w, "\n    ") for w in graph.words)
    else:
        in_edge = {c.representative: _int_list(c.representative, "\n      ") for c in graph.clouds}
        edges = (("", e.source.representative, e.target.representative) for e in graph.edges)
        vertices = (
            "[\n      " + ",\n      ".join(_int_list(w, "\n      ") for w in c.members) + "\n    ]"
            for c in graph.clouds
        )
    write = out.write
    write('{\n  "edges": [')
    sep = "\n"
    for kind, u, v in edges:
        write(f'{sep}    {{\n      {kind}"source": {in_edge[u]},\n      "target": {in_edge[v]}\n    }}')
        sep = ",\n"
    write("],\n" if sep == "\n" else "\n  ],\n")
    write(f'  "element": {json.dumps(word_label(word))},\n  "vertices": [')
    sep = "\n    "
    for text in vertices:
        write(sep + text)
        sep = ",\n    "
    write("\n  ]\n}\n")


def _plain(value):
    """A report as JSON data: a record as the dict of its fields, an element by its to_json."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if type(value) is dict:
        return {k: _plain(v) for k, v in value.items()}
    if type(value) in (list, tuple):
        return [_plain(v) for v in value]
    if type(value) is BSElement:
        return value.to_json()
    return value


def _emit(payload, fmt: str, text_lines) -> None:
    # text_lines may be lazy: it is read only for text or DOT output, and written
    # as print would write each line, one write per TEXT_PIECE_LINES lines
    # (stdout may be unbuffered)
    if fmt == "json":
        print(json.dumps(_plain(payload), indent=2, sort_keys=True))
        return
    lines = iter(text_lines)
    while piece := "".join(f"{line}\n" for line in islice(lines, TEXT_PIECE_LINES)):
        sys.stdout.write(piece)


def cmd_graph(args) -> int:
    word, rank = _resolve_config(args)
    rex = build_rex_graph(word_to_perm(word, rank))
    graph = build_conflated(rex) if args.conflated else rex
    if args.format == "json":
        write_graph_json(word, graph, sys.stdout)
        return EXIT_OK
    if args.format == "dot":
        lines = to_dot(graph)
    elif args.conflated:
        lines = chain(
            [f"conflated graph of {word_label(word)} (rank {rank})"],
            (f"  cloud {c}: {{{', '.join(word_label(w) for w in c.members)}}}" for c in graph.clouds),
            (
                f"  {word_label(e.source.representative)} -> {word_label(e.target.representative)}"
                for e in graph.edges
            ),
        )
    else:
        label = {w: word_label(w) for w in rex.words}
        lines = chain(
            [f"expanded graph of {word_label(word)} (rank {rank})"],
            (f"  {text}" for text in label.values()),
            (f"  {label[u]} -- {label[v]} [{m.kind}]" for u, v, m in rex.edges),
        )
    _emit(None, args.format, lines)
    return EXIT_OK


def cmd_eval(args) -> int:
    word, rank = _resolve_config(args)
    rex = build_rex_graph(word_to_perm(word, rank))
    conf = build_conflated(rex)
    path = parse_path_spec(args.path, rex, conf)
    element = parse_element_spec(args.element, word, rank)
    if path.kind == EXPANDED:
        if path.start != word:
            raise UsageError("expanded path must start at the element word")
        expanded = path
    else:
        if word != path.start:
            raise UsageError(
                "conflated paths act on elements over the starting cloud representative, "
                f"here {word_label(path.start)}"
            )
        expanded = lift_conflated_path(conf, rex, path)
    image = path_morphism(expanded, rank).apply(element)
    payload = {
        "path": [list(v) for v in path.vertices],
        "element": element,
        "image": image,
    }
    _emit(payload, args.format, [f"image: {image}", f"over word {word_label(image.word)}"])
    return EXIT_OK


def _verdict_lines(v: fpc.FpcVerdict) -> list[str]:
    if v.holds:
        return [f"{word_label(v.element)}: all compared paths agree (bound {v.bound})"]
    w = v.counterexample
    return [
        f"{word_label(v.element)}: COUNTEREXAMPLE (bound {v.bound})",
        f"  path a: {' -> '.join(word_label(x) for x in w.path_a)}",
        f"  path b: {' -> '.join(word_label(x) for x in w.path_b)}",
        f"  witness basis mask: {w.witness_mask}",
        f"  image a: {w.image_a}",
        f"  image b: {w.image_b}",
    ]


def _verify_zam(args, budget):
    n = args.rank or 3
    if not 3 <= n <= 5:
        raise UsageError("the zam suite runs at rank 3 to 5")
    report = fpc.check_zam_identities(n)
    dud = fpc.check_dud_udu_all(n)
    payload = {**report._asdict(), "dud_equals_udu_all_pairs": dud}
    lines = [f"rank {n}: {k} = {v}" for k, v in payload.items() if k != "rank"]
    return payload, lines, report.all_hold and dud


def _verify_lemmas(args, budget):
    report = fpc.check_equivalence_lemmas(budget)
    return report.results, [f"{name}: {ok}" for name, ok in report.results.items()], report.all_hold


def _verify_fpc_s4(args, budget):
    sweep = fpc.check_s4_sweep(budget=budget)
    lines = []
    for r in sweep.rows:
        status = "holds" if r.holds else "counterexample"
        mark = "" if r.as_expected else "  UNEXPECTED"
        lines.append(f"{word_label(r.element):>8}  {SHAPE_DISPLAY.get(r.shape, r.shape):>9}  {status}{mark}")
    lines.append(f"all as expected: {sweep.all_expected}")
    return sweep, lines, sweep.all_expected


def _verify_family(args, budget):
    if args.word is not None:
        # exploratory mode: run the bounded comparison on a given element
        word, rank = _resolve_config(args)
        verdict = fpc.check_fpc(word, args.max_len, rank=rank, budget=budget)
        return verdict, _verdict_lines(verdict), True
    n = args.rank or 4
    report = fpc.check_family(n)
    lines = [
        f"element {word_label(report.word)} (rank {n}), line of {len(report.line)} clouds",
        f"  path a: {' -> '.join(word_label(x) for x in report.path_a)}",
        f"  path b: {' -> '.join(word_label(x) for x in report.path_b)}",
        f"  morphisms differ: {report.morphisms_differ}",
    ]
    if n != 4:
        return report, lines, report.morphisms_differ
    img_long, img_short = fpc.family_extra_pair()
    extra = img_long != img_short
    lines.append(f"  source-start pair separates on 1 (x) x2 (x) 1 ...: {extra}")
    return {**report._asdict(), "extra_pair_differs": extra}, lines, report.morphisms_differ and extra


def _verify_refined(args, budget):
    n = args.rank or 3
    if n not in (3, 4):
        raise UsageError("the refined suite runs at rank 3 or 4")
    bound = 10 if args.max_len is None else args.max_len
    verdict = fpc.check_refined_conjecture(n, bound, budget=budget)
    lines = _verdict_lines(verdict)
    if not verdict.holds:
        lines.insert(0, "UNEXPECTED: refined conjecture violated; please report this run")
    return verdict, lines, verdict.holds


# each verify suite's runner, (args, budget) -> (payload, text lines, verdicts
# as expected), and the options it reads, in the parser's order; giving a suite
# another is a usage error.  With --word the family suite reads them all.
VERIFY_OPTIONS = ("rank", "max_len", "budget", "word")
SUITES = {
    "fpc-s4": (_verify_fpc_s4, ("budget",)),
    "zam": (_verify_zam, ("rank",)),
    "lemmas": (_verify_lemmas, ("budget",)),
    "family": (_verify_family, ("rank", "word")),
    "refined": (_verify_refined, ("rank", "max_len", "budget")),
}


def cmd_verify(args) -> int:
    budget = fpc.DEFAULT_BUDGET if args.budget is None else args.budget
    if budget < 1:  # refused before anything is built
        raise UsageError(f"--budget {budget} is below 1, so no search could intern a single matrix")
    suite = args.suite
    run, reads = SUITES[suite]
    if suite == "family" and args.word is not None:
        reads = VERIFY_OPTIONS
    unread = [f"--{o.replace('_', '-')}" for o in VERIFY_OPTIONS if o not in reads and getattr(args, o) is not None]
    if unread:
        phrase = "reads {} only with --word" if suite == "family" else "does not read {}"
        raise UsageError(f"the {suite} suite " + phrase.format(" or ".join(unread)))
    payload, lines, ok = run(args, budget)
    _emit(payload, args.format, lines)
    return EXIT_OK if ok else EXIT_UNEXPECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rexcalc",
        description="exact reduced-expression-graph and Bott-Samelson morphism computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="print the expanded or conflated graph")
    p_graph.add_argument("word", help="reduced word, e.g. 12321 or 1,2,3,2,1")
    p_graph.add_argument("--rank", type=int, default=None, help="rank n (default: max letter + 1)")
    p_graph.add_argument("--conflated", action="store_true", help="print the conflated graph")
    p_graph.add_argument("--format", choices=("dot", "json", "text"), default="text")
    p_graph.set_defaults(func=cmd_graph)

    p_eval = sub.add_parser("eval", help="apply a path morphism to an element")
    p_eval.add_argument("word", help="word of the domain bimodule")
    p_eval.add_argument("--rank", type=int, default=None)
    p_eval.add_argument("--path", required=True, help="vertex sequence, words or s/t/c aliases")
    p_eval.add_argument("--element", required=True, help="comma-separated slot polynomials")
    p_eval.add_argument("--format", choices=("json", "text"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=tuple(SUITES))
    p_verify.add_argument("--rank", type=int, default=None)
    p_verify.add_argument("--max-len", type=int, default=None, dest="max_len")
    p_verify.add_argument("--budget", type=int, default=None, help="max distinct matrices")
    p_verify.add_argument("--word", default=None, help="explicit element for the family suite")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        else:
            if args.rank is not None:
                _check_rank(args.rank)
            code = args.func(args)
        sys.stdout.flush()
        return code
    except fpc.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("error: out of memory; try a smaller element, bound or --budget", file=sys.stderr)
        return EXIT_BUDGET
    except (RuntimeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader stopped early (say, `| head`); point stdout at devnull so
        # the flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
