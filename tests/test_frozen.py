"""The one record constructor: every record of the package takes its fields by position or keyword, once each."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import textwrap

import pytest

import rexcalc
from rexcalc import fpc
from rexcalc.bsbimod import BSElement
from rexcalc.rexgraph import EXPANDED, Cloud, Path, graph_for_word
from rexcalc.symgroup import BraidMove, Frozen, Permutation

for _info in pkgutil.iter_modules(rexcalc.__path__):
    importlib.import_module(f"rexcalc.{_info.name}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted((c for c in _subclasses(Frozen) if c.__module__.startswith("rexcalc.")), key=lambda c: c.__name__)

# the records whose fields need no check or normal form, built by Frozen.__init__ alone
PLAIN = {
    "PathPairWitness", "CounterexampleReport", "ZamReport", "LemmaReport", "SweepRow", "SweepReport",
    "FamilyReport", "RexGraph", "ConflatedEdge", "ConflatedGraph",
}


@pytest.fixture(scope="module")
def samples():
    """One record of each class, most of them from the computations that make them."""
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    verdict = fpc.check_fpc((1, 2, 3, 2, 1), 9, rank=4)
    sweep = fpc.check_s4_sweep()
    records = [
        Permutation((2, 1, 3)),
        BraidMove(1, "distant", 1, 3),
        Path(EXPANDED, [(1, 2, 1), (2, 1, 2)]),
        Cloud([(3, 1), (1, 3)]),
        BSElement.generator((1, 2), 4),
        rex,
        conf,
        conf.edges[0],
        verdict,
        verdict.counterexample,
        fpc.reproduce_counterexample(),
        fpc.check_zam_identities(3),
        fpc.check_equivalence_lemmas(),
        sweep.rows[0],
        sweep,
        fpc.check_family(4),
    ]
    return {type(r): r for r in records}


def test_every_record_class_has_a_sample(samples):
    assert sorted(samples, key=lambda c: c.__name__) == RECORDS
    assert {c.__name__ for c in RECORDS if c.__init__ is Frozen.__init__} == PLAIN


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_rebuilt_from_its_fields_has_the_same_fields(cls, samples):
    fields = samples[cls]._asdict()
    first, *rest = fields
    rebuilt = [
        cls(**fields),
        cls(*fields.values()),
        cls(fields[first], **{name: fields[name] for name in rest}),
    ]
    for twin in rebuilt:
        assert type(twin) is cls and twin._asdict() == fields
        assert list(twin._asdict()) == list(cls.__slots__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_refuses_a_missing_unknown_repeated_or_extra_field(cls, samples):
    fields = samples[cls]._asdict()
    first = next(iter(fields))
    calls = {
        "missing": lambda: cls(**{name: v for name, v in fields.items() if name != first}),
        "unknown": lambda: cls(**fields, unknown_field=1),
        "twice": lambda: cls(fields[first], **fields),
        "too many": lambda: cls(*fields.values(), None),
    }
    for case, call in calls.items():
        with pytest.raises(TypeError) as info:
            call()
        if cls.__name__ in PLAIN:
            # Frozen's message names the class and its fields in slot order
            assert f"{cls.__name__} takes its fields {', '.join(cls.__slots__)} once each" in str(info.value), case


def _forwards_only(init: ast.FunctionDef) -> bool:
    """Whether an __init__ only passes its own parameters, in order and with no default, to self._init."""
    args = init.args
    params = [a.arg for a in args.posonlyargs + args.args]
    if args.defaults or args.vararg or args.kwonlyargs or args.kwarg or len(init.body) != 1:
        return False
    call = init.body[0].value if isinstance(init.body[0], ast.Expr) else None
    return (
        isinstance(call, ast.Call)
        and ast.unparse(call.func) == f"{params[0]}._init"
        and not call.keywords
        and [ast.unparse(a) for a in call.args] == params[1:]
    )


def _inits(cls) -> list[ast.FunctionDef]:
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return [node for node in tree.body[0].body if isinstance(node, ast.FunctionDef) and node.name == "__init__"]


def test_no_record_defines_an_init_that_only_forwards_its_fields():
    forwarding = [cls.__name__ for cls in RECORDS for init in _inits(cls) if _forwards_only(init)]
    assert forwarding == [], "delete these __init__s: Frozen.__init__ already binds the fields"


@pytest.mark.parametrize(
    "source, forwards",
    [
        ("def __init__(self, a, b):\n    self._init(a, b)", True),
        ("def __init__(self, a: int, b: str):  # typed\n    self._init(a, b)", True),
        ("def __init__(self, a, b=None):\n    self._init(a, b)", False),  # the default is what it adds
        ("def __init__(self, a, b):\n    self._init(b, a)", False),
        ("def __init__(self, members):\n    self._init(tuple(sorted(members)))", False),  # Cloud's normal form
        ("def __init__(self, a):\n    check(a)\n    self._init(a)", False),
    ],
)
def test_the_forwarding_check_tells_a_wrapper_from_a_constructor_that_adds_something(source, forwards):
    assert _forwards_only(ast.parse(source).body[0]) is forwards
