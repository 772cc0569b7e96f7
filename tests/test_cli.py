"""Exit codes and output formats of the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rexcalc import cli, fpc
from rexcalc.braidmor import apply_edge
from rexcalc.bsbimod import BSElement, from_tensor
from rexcalc.cli import main, parse_word
from rexcalc.polyring import parse_polynomial
from rexcalc.rexgraph import build_conflated, build_rex_graph, to_dot, word_label
from rexcalc.symgroup import DISTANT, MAX_REDUCED_WORDS, BraidMove, Frozen, longest_element, word_to_perm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_word_forms():
    assert parse_word("12321") == (1, 2, 3, 2, 1)
    assert parse_word("1,2,10") == (1, 2, 10)
    assert parse_word("e") == ()


def test_graph_conflated_dot(capsys):
    code, out, _ = run(capsys, "graph", "12321", "--conflated", "--format", "dot")
    assert code == 0
    assert out.count("->") == 2
    assert '"12321"' in out and '"32123"' in out


def test_graph_conflated_singleton(capsys):
    code, out, _ = run(capsys, "graph", "246", "--conflated", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 1
    assert payload["edges"] == []


def test_graph_rejects_non_reduced(capsys):
    code, _, err = run(capsys, "graph", "11")
    assert code == 2
    assert "not reduced" in err


def test_graph_expanded_json(capsys):
    code, out, _ = run(capsys, "graph", "12321", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 6
    kinds = [e["kind"] for e in payload["edges"]]
    assert kinds.count("distant") == 4


def test_eval_expanded_path(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "13231",
        "--path",
        "13231,31231,31213,32123,31213,13213,13231,12321,13231",
        "--element",
        "1,1,1,x3,1,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["image"]["word"] == [1, 3, 2, 3, 1]
    assert payload["image"]["entries"] == [
        {"mask": 0, "poly": "x1 + x2"},
        {"mask": 1, "poly": "-1"},
    ]


def test_eval_second_loop_returns_the_element(capsys):
    # the loop visiting the source first fixes the distinguished element
    code, out, _ = run(
        capsys,
        "eval",
        "13231",
        "--path",
        "13231,12321,13231,31231,31213,32123,31213,13213,13231",
        "--element",
        "1,1,1,x3,1,1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["image"] == payload["element"]
    assert len(payload["image"]["entries"]) == 4


def test_eval_identity_path_echoes(capsys):
    code, out, _ = run(capsys, "eval", "12321", "--path", "12321", "--element", "1,x2,1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["image"] == payload["element"]


def test_eval_identity_word_as_path(capsys):
    # e spells the empty word in a path too, not an undefined alias
    code, out, _ = run(capsys, "eval", "e", "--path", "e", "--element", "x1")
    assert code == 0
    payload = json.loads(out)
    assert payload["path"] == [[]]
    assert payload["image"] == payload["element"]
    code, out, _ = run(capsys, "eval", "e", "--path", "e", "--element", "x1", "--format", "text")
    assert code == 0 and out.endswith("over word e\n")
    code, _, err = run(capsys, "eval", "12321", "--path", "s,e", "--element", "1,1,1,1,1,1")
    assert code == 2 and "e is not a reduced word of this element" in err


@pytest.mark.parametrize(
    "spec, bad",
    [
        ("12321,99999", "99999"),  # last
        ("99999,12321", "99999"),  # first
        ("12321,13231,12213", "12213"),  # a reduced word of another element
        ("12321,99999,13231", "99999"),  # in the middle
        ("99999,12213", "99999"),  # the first of two
        ("s,99999", "99999"),  # beside an alias
    ],
)
def test_eval_path_vertex_outside_the_element_is_a_usage_error(capsys, spec, bad):
    code, out, err = run(capsys, "eval", "12321", "--path", spec, "--element", "1,1,1,1,1,1")
    assert (code, out, err) == (2, "", f"error: {bad} is not a reduced word of this element\n")


def test_eval_conflated_aliases(capsys):
    code, out, _ = run(
        capsys, "eval", "12321", "--path", "s,c,t,c", "--element", "1,x2,1,1,1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["image"]["word"] == [1, 3, 2, 1, 3]
    assert len(payload["image"]["entries"]) == 4


def test_eval_path_over_multi_digit_letters(capsys):
    # with arrows, each vertex may be a comma-separated word, so letters of
    # 10 and more can be written; the image is that of the one distant move
    argv = ["eval", "1,2,10", "--rank", "11", "--element", "1,x2,x10,1"]
    code, out, _ = run(capsys, *argv, "--path", "1,2,10->1,10,2", "--format", "text")
    assert code == 0
    element = from_tensor((1, 2, 10), [parse_polynomial(p, 11) for p in ("1", "x2", "x10", "1")], 11)
    image = apply_edge(element, BraidMove(1, DISTANT, 2, 10))
    assert out == f"image: {image}\nover word 1,10,2\n"
    assert str(image) == "(x1*x10 + x2*x10)*e[000] + (-x10)*e[100]"
    # an arrow path and a comma path of the same vertices print the same bytes
    assert run(capsys, "eval", "12321", "--path", "s->c->t->c", "--element", "1,x2,1,1,1,1") == run(
        capsys, "eval", "12321", "--path", "s,c,t,c", "--element", "1,x2,1,1,1,1"
    )


def test_eval_conflated_path_written_as_words(capsys):
    # reduced words that are no walk of braid moves, but whose clouds form a
    # walk of links, are that conflated path, as README documents
    element = ["--element", "1,x2,1,1,1,1"]
    code, out, err = run(capsys, "eval", "12321", "--path", "12321,13213,32123", *element)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "eval", "12321", "--path", "s,c,t", *element)
    # the lemma walk A, B, A, B on the longest element of S_4 avoids s and t;
    # it prints what its lift, given as an expanded path, prints
    lemma = ["eval", "212321", "--element", "1,x2,1,x3,1,1,1", "--format", "text"]
    code, out, _ = run(capsys, *lemma, "--path", "212321,213213,212321,213213")
    assert code == 0 and out.endswith("over word 213213\n")
    assert run(capsys, *lemma, "--path", "212321,213231,212321,213231,213213") == (code, out, "")


def test_eval_with_rational_slots_prints_pinned_bytes(capsys):
    # a rational coefficient is where fractions is first imported
    argv = ["eval", "121", "--rank", "4", "--path", "121,212", "--element", "1/2*x1,1,x2/3 - 1/6,(x3+1)/2"]
    code, out, err = run(capsys, *argv, "--format", "text")
    assert (code, err) == (0, "")
    assert out == (
        "image: (1/12*x1^2*x3 + 1/12*x1*x2*x3 + 1/12*x1*x3^2 - 1/24*x1^2 - 1/24*x1*x2 + 1/24*x1*x3 - 1/24*x1)*e[000]"
        " + (-1/12*x1*x3 + 1/24*x1)*e[010] + (-1/12*x1*x3 + 1/24*x1)*e[001]\nover word 212\n"
    )
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == "a3feea23b15435a198a63d8c5453ad9c01dfd3b2c81a99d023e250fb8c1555f7"


def test_eval_bad_element_spec(capsys):
    code, _, err = run(capsys, "eval", "12321", "--path", "s,c", "--element", "1,1")
    assert code == 2


def test_verify_zam(capsys):
    code, out, _ = run(capsys, "verify", "zam", "--rank", "3")
    assert code == 0
    assert "True" in out


def test_verify_zam_at_rank_five(capsys):
    # all four source/sink identities and DUD = UDU hold on the longest element of S_5
    code, out, _ = run(capsys, "verify", "zam", "--rank", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "rank": 5,
        "z_zb_z_equals_z": True,
        "zb_z_zb_equals_zb": True,
        "zb_z_idempotent": True,
        "zb_z_proper": True,
        "dud_equals_udu_all_pairs": True,
    }


@pytest.mark.parametrize("rank", ["2", "6"])
def test_verify_zam_refuses_a_rank_outside_three_to_five(capsys, rank):
    code, out, err = run(capsys, "verify", "zam", "--rank", rank)
    assert (code, out, err) == (2, "", "error: the zam suite runs at rank 3 to 5\n")


def test_verify_lemmas_json(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(payload.values())


def test_verify_family(capsys):
    code, out, _ = run(capsys, "verify", "family", "--rank", "4")
    assert code == 0
    assert "morphisms differ: True" in out


def test_verify_family_manual_word(capsys):
    # exploratory mode: no pinned expectation, success means "computed"
    code, out, _ = run(
        capsys, "verify", "family", "--word", "121", "--rank", "3", "--max-len", "9"
    )
    assert code == 0
    assert "agree" in out


def test_verify_refined(capsys):
    code, out, _ = run(capsys, "verify", "refined", "--rank", "3", "--max-len", "8")
    assert code == 0


def test_verify_fpc_s4(capsys):
    code, out, _ = run(capsys, "verify", "fpc-s4")
    assert code == 0
    assert "all as expected: True" in out
    assert out.count("counterexample") == 1  # only 12321


def test_verify_budget_exhaustion(capsys):
    code, _, err = run(
        capsys, "verify", "refined", "--rank", "3", "--max-len", "8", "--budget", "2"
    )
    assert code == 3
    assert err.startswith("error: more than 2 distinct morphism matrices") and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2


@pytest.mark.parametrize(
    "name, argv, error",
    [
        ("check_family", ["verify", "family", "--rank", "4"], RuntimeError("window rewrite failed for mask 0 of 121")),
        ("check_zam_identities", ["verify", "zam", "--rank", "3"], AssertionError("walk left the graph")),
    ],
)
def test_internal_fault_is_exit_4_without_a_traceback(capsys, monkeypatch, name, argv, error):
    # a failed table check or a broken invariant is neither a verdict (1)
    # nor a usage error (2)
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(fpc, name, broken)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INTERNAL == 4
    assert err == f"internal error: {error}\n"
    assert "Traceback" not in out + err


def test_out_of_memory_is_exit_3_without_a_traceback(capsys, monkeypatch):
    # running out of memory is running out of a resource, not a verdict (1)
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fpc, "check_fpc", exhausted)
    code, out, err = run(capsys, "verify", "family", "--word", "1213214321")
    assert code == cli.EXIT_BUDGET == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["graph"], ["eval", "--path", "s", "--element", "1"]], ids=["graph", "eval"])
def test_an_over_long_word_is_refused_before_it_is_checked_for_reducedness(capsys, monkeypatch, command):
    calls = []

    def counting_is_reduced(word, rank):
        calls.append(word)
        return True

    monkeypatch.setattr(cli, "is_reduced", counting_is_reduced)
    word = "12" * 50_000
    code, out, err = run(capsys, command[0], word, *command[1:])
    assert code == 2 and out == ""
    assert err == f"error: a word of 100,000 letters is longer than any reduced word ({cli.MAX_WORD_LENGTH})\n"
    assert len(err.encode()) < 200 and calls == []
    # the longest reduced word at the largest rank is still read
    assert len(parse_word(",".join(map(str, longest_element(cli.MAX_RANK))))) == cli.MAX_WORD_LENGTH == 55


def test_output_is_deterministic(capsys):
    argv = ["graph", "121321", "--conflated", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_budget_error_names_the_flag(capsys):
    code, _, err = run(
        capsys, "verify", "refined", "--rank", "3", "--max-len", "8", "--budget", "2"
    )
    assert code == 3
    assert "--budget 2" in err


def test_lemmas_search_runs_under_the_budget(capsys):
    code, out, err = run(capsys, "verify", "lemmas", "--budget", "1")
    assert code == 3 and out == ""
    assert err.startswith("error: more than 1 distinct morphism matrices, the limit set by --budget 1")
    code, out, err = run(capsys, "verify", "lemmas", "--budget", "100000")
    assert code == 0 and err == ""
    assert out.count(": True") == 10


def test_no_environment_variable_sets_a_verify_option(capsys, monkeypatch):
    # --budget is the search budget's only setting: a variable named after
    # any verify option, a budget of 1 included, changes nothing
    for option in ("budget", "max_len", "rank"):
        monkeypatch.setenv(f"REXCALC_{option.upper()}", "1")
    code, out, err = run(capsys, "verify", "lemmas")
    assert code == 0 and err == ""
    assert out.count(": True") == 10


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zam", "--rank", "4", "--max-len", "3"], "the zam suite does not read --max-len"),
        (["fpc-s4", "--rank", "3", "--word", "121"], "the fpc-s4 suite does not read --rank or --word"),
        (["refined", "--word", "12321"], "the refined suite does not read --word"),
        (["lemmas", "--rank", "9", "--word", "1"], "the lemmas suite does not read --rank or --word"),
        (["lemmas", "--max-len", "9", "--budget", "10"], "the lemmas suite does not read --max-len"),
        (["family", "--rank", "4", "--max-len", "1"], "the family suite reads --max-len only with --word"),
        (["fpc-s4", "--max-len", "12"], "the fpc-s4 suite does not read --max-len"),
        (["zam", "--budget", "5"], "the zam suite does not read --budget"),
        (["family", "--rank", "4", "--budget", "5"], "the family suite reads --budget only with --word"),
    ],
)
def test_verify_refuses_an_option_the_suite_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_an_unparsable_huge_letter_is_not_echoed(capsys):
    # two parts pass the letter-count bound, but int() refuses the second
    code, out, err = run(capsys, "graph", "1," + "9" * 100_000)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse word '1,999") and err.endswith(" (100,002 characters)\n")
    assert len(err.encode()) < 200


def test_budget_is_validated_before_unread_options(capsys):
    code, _, err = run(capsys, "verify", "zam", "--max-len", "3", "--budget", "0")
    assert code == 2 and err.startswith("error: --budget 0 is below 1")


def test_eval_names_a_non_move_step_by_its_word_labels(capsys):
    code, out, err = run(capsys, "eval", "12321", "--path", "12321,12321", "--element", "1,1,1,1,1,1")
    assert code == 2 and out == ""
    assert err == "error: 12321 and 12321 do not differ by a single braid move\n"


@pytest.mark.parametrize(
    "flag, setting",
    [
        (["--budget", "-1"], "--budget -1"),
        (["--budget", "0"], "--budget 0"),
    ],
    ids=["flag-minus-one", "flag-zero"],
)
def test_budget_below_one_is_a_usage_error(capsys, flag, setting):
    code, out, err = run(capsys, "verify", "refined", "--rank", "3", *flag)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {setting} ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--word", "1213214321", "--budget", "0"],
        ["zam", "--rank", "3", "--budget", "0"],
        ["lemmas", "--budget", "-5"],
        ["fpc-s4", "--budget", "0"],
    ],
)
def test_budget_is_read_before_anything_is_built(capsys, monkeypatch, argv):
    calls = []

    def counting_build(perm):
        calls.append(perm)
        return build_rex_graph(perm)

    monkeypatch.setattr(fpc, "build_rex_graph", counting_build)
    fpc._element_calculus.cache_clear()
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert calls == []


def test_budget_error_reports_search_progress(capsys):
    code, out, err = run(
        capsys, "verify", "refined", "--rank", "3", "--max-len", "8", "--budget", "5"
    )
    assert code == 3 and out == ""
    assert "--budget 5" in err
    assert "path length 3 of 8" in err and "explored 5 states" in err
    # the levels below the one reported finish within the same budget
    code, _, _ = run(
        capsys, "verify", "refined", "--rank", "3", "--max-len", "2", "--budget", "5"
    )
    assert code == 0


def test_family_word_builds_the_graph_once(capsys, monkeypatch):
    calls = []

    def counting_build(perm):
        calls.append(perm)
        return build_rex_graph(perm)

    monkeypatch.setattr(cli, "build_rex_graph", counting_build)
    monkeypatch.setattr(fpc, "build_rex_graph", counting_build)
    fpc._element_calculus.cache_clear()
    code, out, _ = run(capsys, "verify", "family", "--word", "12134325")
    assert code == 0 and "COUNTEREXAMPLE (bound 14)" in out
    assert len(calls) == 1


@pytest.mark.parametrize("bound", ["1000000", "10000000"])
def test_refined_search_stops_when_no_walk_extends(capsys, bound):
    # the rank-3 graph is exhausted after a few levels; a huge bound must
    # not iterate the empty ones (each million empty levels took ~2 s)
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "refined", "--rank", "3", "--max-len", bound, "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5
    code, small, _ = run(capsys, "verify", "refined", "--rank", "3", "--max-len", "10", "--format", "json")
    assert code == 0
    assert {**json.loads(out), "bound": 10} == json.loads(small)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "refined", "--rank", "3", "--max-len", "1"],
        ["verify", "refined", "--rank", "3", "--max-len", "-5"],
        ["verify", "refined", "--rank", "4", "--max-len", "4"],
        ["verify", "family", "--word", "121", "--max-len", "0"],
    ],
)
def test_search_that_compares_no_path_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_refined_accepts_the_least_bound_that_compares(capsys):
    code, out, _ = run(capsys, "verify", "refined", "--rank", "4", "--max-len", "5")
    assert code == 0 and "all compared paths agree (bound 5)" in out


def test_family_word_is_read_like_every_other_word(capsys):
    for empty in ("e", ""):
        code, out, _ = run(capsys, "verify", "family", "--word", empty)
        assert code == 0 and out.startswith("e: all compared paths agree")
    code, _, err = run(capsys, "verify", "family", "--word", "13", "--rank", "3")
    assert code == 2 and "out of range for rank 3" in err


@pytest.mark.parametrize(
    "argv, label",
    [
        (["graph", "1,0"], "1,0"),
        (["graph", "1,-2"], "1,-2"),
        (["eval", "1,0", "--path", "s", "--element", "1,1,1"], "1,0"),
        (["verify", "family", "--word", "1,0"], "1,0"),
    ],
)
def test_a_word_with_a_letter_outside_1_to_9_is_named_with_commas(capsys, argv, label):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: letters of {label} out of range for rank 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "e", "--rank", "10000"],
        ["graph", "1,20"],
        ["eval", "12321", "--rank", "1000000", "--path", "s,c", "--element", "1,1,1,1,1,1"],
        ["verify", "fpc-s4", "--rank", "12"],
        ["verify", "family", "--word", "121", "--rank", "10000"],
        ["graph", "e", "--rank", "-3"],
        ["verify", "zam", "--rank", "0"],
    ],
)
def test_rank_outside_the_range_is_a_usage_error(argv):
    start = time.perf_counter()
    proc = _run_cli(*argv, capture_output=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert f"range 1..{cli.MAX_RANK}" in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 5


def test_rank_limit_admits_two_digit_letters(capsys):
    code, out, _ = run(capsys, "graph", "1,2,10", "--conflated")
    assert code == 0
    assert "cloud 1,2,10: {1,2,10, 1,10,2, 10,1,2}" in out


def test_huge_exponent_is_a_usage_error():
    # expanding x1^99999999 used to hang; it must be refused at parse time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["eval", "12321", "--path", "s,c,t,c", "--element", "1,1,1,1,1,x1^99999999"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rexcalc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert elapsed < 5


def _run_cli(*argv, **kwargs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "rexcalc.cli", *argv], text=True, env=env, timeout=60, **kwargs
    )


def test_dense_power_is_a_usage_error():
    # within the degree limit, but it expands to 635,376 terms
    argv = ["eval", "12321", "--path", "s,c,t,c", "--element", "1,1,1,1,1,(x1+x2+x3+x4+1)^60"]
    start = time.perf_counter()
    proc = _run_cli(*argv, capture_output=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "term limit" in proc.stderr
    assert elapsed < 5


def test_too_many_reduced_words_is_a_usage_error():
    # the longest element of S_6 has 292,864 reduced words; its closure
    # grew past 500 MB before it was bounded
    start = time.perf_counter()
    proc = _run_cli("graph", "121321432154321", capture_output=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert f"more than {MAX_REDUCED_WORDS:,} reduced words" in proc.stderr
    assert elapsed < 10


def test_unknown_path_vertex_is_a_usage_error():
    for path in ("s,99", "12321,99"):
        proc = _run_cli("eval", "12321", "--path", path, "--element", "1,1,1,1,1,1", capture_output=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_closed_stdout_exits_quietly():
    # the reader of the pipe is gone before the first write, as after `| head`
    for argv in (["graph", "121321"], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_cli(*argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""
    # the reader goes away partway through a 6.8 MB graph document
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "rexcalc.cli", "graph", "121321432154", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    head = proc.stdout.read(100_000)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b'{\n  "edges": [\n    {\n      "kind": "distant",\n')
    assert stderr == b""
    # and partway through the text of a graph
    proc = subprocess.Popen(
        [sys.executable, "-m", "rexcalc.cli", "graph", "121321432154", "--format", "text"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    head = proc.stdout.read(10_000)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b"expanded graph of 121321432154 (rank 6)\n  ")
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv", [["graph", "121"], ["verify", "zam", "--format", "json"], ["--help"], ["verify", "--help"]]
)
def test_unwritable_output_is_exit_3_without_a_traceback(argv, monkeypatch):
    # every write to /dev/full fails with ENOSPC, as on a full disk: on a
    # buffered stdout at the flush, on an unbuffered one (python -u) at the
    # write itself, which argparse would swallow when printing help
    for unbuffered in ("", "1"):
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        with open("/dev/full", "w") as full:
            proc = _run_cli(*argv, stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 3, unbuffered
        assert proc.stderr == "error: cannot write the output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv, code, stdout_full",
    [
        (["graph", "11"], 2, False),
        (["verify", "fpc-s4", "--budget", "0"], 2, False),
        (["verify", "refined", "--rank", "3", "--budget", "1"], 3, False),
        (["graph", "121"], 3, True),
    ],
)
def test_unwritable_stderr_keeps_the_exit_code(argv, code, stdout_full, monkeypatch):
    # the error line is lost, but the exit code still tells a usage error (2)
    # or a budget or unwritable output (3) from an unexpected verdict (1)
    for unbuffered in ("", "1"):
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        with open("/dev/full", "w") as full:
            proc = _run_cli(*argv, stdout=full if stdout_full else subprocess.DEVNULL, stderr=full)
        assert proc.returncode == code, unbuffered


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_unwritable_stderr_keeps_exit_4(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("window rewrite failed for mask 0 of 121")

    monkeypatch.setattr(fpc, "check_family", broken)
    # line-buffered, as sys.stderr is, so the print itself meets the full disk
    with open("/dev/full", "w", buffering=1) as full, contextlib.redirect_stdout(io.StringIO()):
        monkeypatch.setattr(sys, "stderr", full)
        assert main(["verify", "family", "--rank", "4"]) == cli.EXIT_INTERNAL


def test_text_output_is_the_printed_lines(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    cli._emit(None, "text", iter(["first", 2, "", BSElement.generator((1,), 4)]))
    cli._emit(None, "text", iter([]))
    assert out.getvalue() == "first\n2\n\n(1)*e[0]\n"


def test_text_output_is_one_write_on_an_unbuffered_stdout(monkeypatch):
    # an unbuffered stdout (python -u, PYTHONUNBUFFERED) passes each text
    # write straight to the file, so the lines are joined into one write
    class Raw(io.RawIOBase):
        def __init__(self):
            self.writes = []

        def writable(self):
            return True

        def write(self, b):
            self.writes.append(bytes(b))
            return len(b)

    raw = Raw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    cli._emit(None, "text", ["a", "b", "c"])
    assert raw.writes == [b"a\nb\nc\n"]


def test_long_text_output_is_written_in_pieces(capsys, monkeypatch):
    # the rank-11 line graph prints 22.8 MB of text, which is not joined
    # into one string; one piece more than fits makes a second write
    writes = []
    real_write = sys.stdout.write
    monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real_write(text))
    lines = [f"line {i}" for i in range(cli.TEXT_PIECE_LINES + 1)]
    cli._emit(None, "text", iter(lines))
    assert [len(w.splitlines()) for w in writes] == [cli.TEXT_PIECE_LINES, 1]
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)


def test_dot_output_is_written_in_pieces(capsys, monkeypatch):
    # DOT text goes through the same piecewise writer as text output
    monkeypatch.setattr(cli, "TEXT_PIECE_LINES", 5)
    writes = []
    real_write = sys.stdout.write
    monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real_write(text))
    assert main(["graph", "121321", "--format", "dot"]) == 0
    assert len(writes) > 1 and max(len(w.splitlines()) for w in writes) <= 5
    rex = build_rex_graph(word_to_perm((1, 2, 1, 3, 2, 1), 4))
    assert capsys.readouterr().out == "\n".join(to_dot(rex)) + "\n"


def test_element_term_product_is_a_usage_error():
    # each slot is within the term limit, but the two slots together span
    # 3,060^2 term products, which from_tensor and apply would multiply out
    big = "(x1+x2+x3+x4+1)^14"
    argv = ["eval", "12321", "--path", "s,c,t,c", "--element", f"{big},1,1,1,1,{big}"]
    start = time.perf_counter()
    proc = _run_cli(*argv, capture_output=True)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "term limit" in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 5


# each nesting level recursed in the parser, so these ended in a RecursionError
DEEP_PARENTHESES = "(" * 260 + "1" + ")" * 260 + ",1,1,1,1,1"
DEEP_SIGNS = "1+" + "-" * 3000 + "1,1"


@pytest.mark.parametrize("element", [DEEP_PARENTHESES, DEEP_SIGNS], ids=["parentheses", "signs"])
def test_deep_nesting_is_a_usage_error(element):
    proc = _run_cli("eval", "12321", "--path", "s,c,t,c", f"--element={element}", capture_output=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "input nesting limit" in proc.stderr
    assert proc.stdout == ""


_fuzz_letters = st.lists(st.integers(1, 3), max_size=6)
_fuzz_garbage = st.sampled_from(["e", "-", "", "0", "14", "1,,2", "x", "12a", "-1"])
_fuzz_words = _fuzz_letters.map(lambda ls: "".join(map(str, ls)) or "e") | _fuzz_garbage
_fuzz_slots = st.sampled_from(["1", "", "x1", "x2-x3", "-(x1+2)", "x3^2/3"]) | st.text("x1234+-*/^() ", max_size=8)
_fuzz_ints = st.none() | st.integers(-1, 12)


@st.composite
def _cli_argv(draw):
    """A cheap command line of the CLI grammar, garbage words and texts included."""
    command = draw(st.sampled_from(["graph", "eval", "verify"]))
    if command == "verify":
        argv = [command, draw(st.sampled_from(["zam", "lemmas", "family", "refined"]))]
        if argv[1] == "family" and draw(st.booleans()):
            argv += ["--word", draw(_fuzz_words)]
        for flag in ("--max-len", "--budget"):
            value = draw(_fuzz_ints)
            if value is not None:
                argv += [flag, str(value)]
    else:
        letters = draw(_fuzz_letters)
        word = "".join(map(str, letters)) or "e"
        argv = [command, draw(st.sampled_from([word, ",".join(map(str, letters)) or "e"]) | _fuzz_garbage)]
        if command == "graph" and draw(st.booleans()):
            argv.append("--conflated")
        if command == "eval":
            aliases = st.lists(st.sampled_from(["s", "t", "c", "e", "q"]), min_size=1, max_size=5)
            path = draw(st.just(word) | _fuzz_words | aliases.map(",".join))
            # mostly one slot per letter and one more, as the element needs
            slots = draw(st.lists(_fuzz_slots, min_size=len(letters) + 1, max_size=len(letters) + 1))
            element = ",".join(slots) if draw(st.integers(0, 3)) else draw(st.text("x12+-(),", max_size=12))
            argv += ["--path", path, f"--element={element}"]
    rank = draw(_fuzz_ints)
    if rank is not None:
        argv += ["--rank", str(rank)]
    fmt = draw(st.sampled_from([None, "dot", "json", "text"]))
    if fmt is not None:
        argv += ["--format", fmt]
    return argv


@settings(max_examples=150, deadline=None)
@given(_cli_argv())
@example(["eval", "12321", "--path", "s,c,t,c", f"--element={DEEP_PARENTHESES}"])
@example(["eval", "12321", "--path", "s,c,t,c", f"--element={DEEP_SIGNS}"])
def test_exit_code_contract_holds_on_drawn_command_lines(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


CLI_MIX_FIXED = [
    "graph 121321 --conflated --format dot",
    "graph 1213214321 --format json",
    "graph 121321432154 --format json",
    "graph 121321432154 --conflated --format text",
    "eval 13231 --path 13231,31231,31213,32123,31213,13213,13231,12321,13231 --element 1,1,1,x3,1,1",
    "eval 12321 --path s,c,t,c --element 1,x2,1,1,1,1",
    "verify zam --rank 3 --format json",
    "verify refined --rank 3 --format json",
    "verify family --rank 4 --format json",
    "verify family --rank 5 --format json",
    "verify lemmas --format json",
    "verify fpc-s4 --format json",
    "verify zam --rank 4 --format json",
    "verify family --rank 6 --format json",
]

# exit code and stdout digest of every fixed benchmark task
EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())


def assert_same_text(got: str, want: str, label: str) -> None:
    # pytest's own diff of two multi-megabyte strings would take minutes
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(0, at - 30)
        pytest.fail(f"{label}: text differs at {at}: {got[lo:at + 30]!r} != {want[lo:at + 30]!r}")


def graph_payload(word: str, rank: int | None = None, conflated: bool = False) -> dict:
    """The v1 JSON payload of ``rexcalc graph WORD [--rank RANK] [--conflated] --format json``, as a dict."""
    letters = parse_word(word)
    rank = rank or (max(letters) + 1 if letters else 2)
    rex = build_rex_graph(word_to_perm(letters, rank))
    if conflated:
        conf = build_conflated(rex)
        vertices = [[list(w) for w in c.members] for c in conf.clouds]
        edges = [
            {"source": list(e.source.representative), "target": list(e.target.representative)} for e in conf.edges
        ]
    else:
        vertices = [list(w) for w in rex.words]
        edges = [{"source": list(u), "target": list(v), "kind": m.kind} for u, v, m in rex.edges]
    return {"element": word_label(letters), "vertices": vertices, "edges": edges}


def assert_graph_json(capsys, word: str, rank: int | None, conflated: bool) -> None:
    argv = ["graph", word, "--format", "json"] + ([] if rank is None else ["--rank", str(rank)])
    argv += ["--conflated"] if conflated else []
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    reference = json.dumps(graph_payload(word, rank, conflated), indent=2, sort_keys=True) + "\n"
    assert_same_text(out, reference, " ".join(argv))


@pytest.mark.parametrize(
    "word, rank",
    [
        ("e", 3),
        ("1", None),
        ("2", 4),
        ("13", None),
        ("12321", None),
        ("121321", None),
        ("1213214321", None),
        ("1,2,10", None),
        ("9,10,9", 11),
        ("8,9,10,9,8", None),
    ],
)
def test_expanded_graph_json_matches_json_dumps(capsys, word, rank):
    assert_graph_json(capsys, word, rank, conflated=False)


@pytest.mark.parametrize(
    "word, rank",
    [
        ("e", 3),
        ("246", None),
        ("12321", None),
        ("121321", None),
        ("1213214321", None),
        ("1,2,10", None),
        ("9,10,9", 11),
        ("8,9,10,9,8", None),
    ],
)
def test_conflated_graph_json_matches_json_dumps(capsys, word, rank):
    assert_graph_json(capsys, word, rank, conflated=True)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process, and the two cost about 20 ms to import
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, rexcalc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_import_loads_neither_fractions_nor_typing():
    # with site off (-S), as site may load typing itself; fractions loads
    # decimal and numbers, and only a rational coefficient needs it
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys\n"
        "def loaded(): return sorted({'fractions', 'decimal', 'typing'} & set(sys.modules))\n"
        "import rexcalc.cli\n"
        "print(loaded())\n"
        "import rexcalc\n"
        "print(loaded())\n"
        "p = rexcalc.parse_polynomial('(x1 - 2*x2)^3 + 1', 3)\n"
        "p * 2 - 1 == 1, p.split(1), p.demazure(2), rexcalc.from_tensor((1, 2), (p, p, 1 + p), 3)\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n" * 3


def _plain(value):
    """A CLI payload as JSON data: a record as the dict of its fields, an element by to_json."""
    if isinstance(value, BSElement):
        return value.to_json()
    if isinstance(value, Frozen):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def test_dumps_matches_json_dumps_on_cli_payloads(capsys, monkeypatch):
    payloads = []
    emit = cli._emit

    def spy(payload, fmt, text_lines):
        payloads.append(payload)
        emit(payload, fmt, text_lines)

    monkeypatch.setattr(cli, "_emit", spy)
    assert sorted(CLI_MIX_FIXED) == sorted(EXPECTED)
    for command in CLI_MIX_FIXED:
        code, out, _ = run(capsys, *command.split())
        assert code == EXPECTED[command]["exit"], command
        assert sha256(out.encode()).hexdigest() == EXPECTED[command]["sha256"], command
        if "--format json" not in command:
            continue
        if command.startswith("graph"):
            # a graph document is streamed by its own writer, not through _emit
            payload = graph_payload(command.split()[1], conflated="--conflated" in command)
        else:
            payload = _plain(payloads[-1])
        assert_same_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n", command)


# stdout digests of the outputs that print a counterexample with its witness
# images, which no benchmark task prints; all three exit 0
COUNTEREXAMPLE_OUTPUTS = {
    "verify family --word 12321 --format json": "ea641ba98598f6014166a9f8f42123fc8f7bb742c1ab442cf1f987ab4b45a5e4",
    "verify family --word 12321 --format text": "4f1873515abc88ab5328509b92c065ec10d724dd1b846763a0d422f0a8e96de1",
    "verify family --word 121321 --format json": "23ad97ed00cc256a6b2c63032e54726bba264f183f5e1cc8d9142c1ffd150edd",
}


@pytest.mark.parametrize("command", sorted(COUNTEREXAMPLE_OUTPUTS))
def test_counterexample_output_is_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == COUNTEREXAMPLE_OUTPUTS[command]
