"""Run one rexcalc CLI invocation with the public functions of each layer wrapped.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py STATS.json verify zam --rank 3 --format json

The invocation behaves exactly like ``python3 -m rexcalc.cli ARGS...``: same
stdout, same exit code.  At exit it writes STATS.json holding the import
time of ``rexcalc.cli``, per-name totals (calls, inclusive seconds, self
seconds and a few result counters) and the recorded spans.

The wrapping happens from outside the package.  A wrapped function is
replaced in every ``rexcalc`` module namespace and class dictionary that
holds it, so names brought in with ``from .x import f`` (and aliases such
as ``__rmul__ = __mul__``) are traced too.  A target that no longer exists
is listed under ``missing`` (by the totals name it feeds) instead of being
reported as zero.

Self time is a call's duration minus the time covered by the wrapped calls
made beneath it.  Spans (name, start, end, parent span) are kept in memory
and written out at the end for every target except the arithmetic kernels
of ``polyring`` and ``bsbimod``: those run millions of times per workload,
so only their totals are kept.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute path, name of the totals it feeds)
TARGETS = (
    ("polyring", "Polynomial.__mul__", "polyring.mul"),
    ("polyring", "Polynomial.__add__", "polyring.add"),
    ("polyring", "Polynomial.split", "polyring.split"),
    ("polyring", "Polynomial.key", "polyring.key"),
    ("bsbimod", "from_tensor", "bsbimod.from_tensor"),
    ("bsbimod", "right_mul", "bsbimod.right_mul"),
    ("braidmor", "apply_edge", "braidmor.apply_edge"),
    ("braidmor", "edge_matrix", "braidmor.edge_matrix"),
    ("braidmor", "MorphismMatrix.for_edge", "braidmor.for_edge"),
    ("braidmor", "ConflatedMorphisms.__init__", "braidmor.tables"),
    ("braidmor", "MorphismMatrix.compose", "braidmor.compose"),
    ("braidmor", "ConflatedMorphisms.path_matrix", "braidmor.path_matrix"),
    ("braidmor", "MorphismMatrix.key", "braidmor.key"),
    ("braidmor", "MorphismMatrix.apply", "braidmor.apply"),
    ("symgroup", "reduced_words", "symgroup.reduced_words"),
    ("rexgraph", "build_rex_graph", "rexgraph.build_rex_graph"),
    ("rexgraph", "build_conflated", "rexgraph.build_conflated"),
    ("rexgraph", "lift_conflated_path", "rexgraph.lift"),
    ("fpc", "check_fpc", "fpc.search"),
    ("fpc", "check_refined_conjecture", "fpc.search"),
    ("fpc", "check_zam_identities", "fpc.zam"),
    ("fpc", "check_dud_udu_all", "fpc.zam"),
    ("fpc", "check_family", "fpc.family"),
    ("fpc", "family_extra_pair", "fpc.family"),
    ("cli", "main", "cli.main"),
)

KERNEL_PREFIXES = ("polyring.", "bsbimod.")


class Totals:
    __slots__ = ("calls", "s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0  # inclusive time of outermost activations only
        self.self_s = 0.0
        self.active = 0
        self.extra: dict[str, float] = {}

    def to_json(self) -> dict:
        return {"calls": self.calls, "s": self.s, "self_s": self.self_s, **self.extra}


class Tracer:
    """Totals and spans of one process; frames form a stack of [child time, span id]."""

    def __init__(self):
        self.totals: dict[str, Totals] = {}
        self.spans: list = []
        self.stack: list[list] = [[0.0, -1]]
        self.missing: list[str] = []

    def wrap(self, fn, name: str, observer=None):
        totals = self.totals.setdefault(name, Totals())
        stack, spans = self.stack, self.spans
        keep_span = not name.startswith(KERNEL_PREFIXES)
        hook = [observer[0] if observer else None]

        def drop_counters():
            # the result no longer has the shape the hook reads: report its
            # counters as absent rather than as a partial count
            hook[0] = None
            for owner, field in observer[1]:
                self.totals[owner].extra.pop(field, None)
                self.missing.append(f"{owner}.{field}")

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = parent[1]
            if keep_span:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            totals.active += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                totals.active -= 1
                dur = end - start
                parent[0] += dur
                totals.calls += 1
                totals.self_s += dur - frame[0]
                if not totals.active:
                    totals.s += dur
                if keep_span:
                    spans[sid] = (name, start, end, parent[1])
            if hook[0] is not None and result is not NotImplemented:
                try:
                    hook[0](result)
                except (AttributeError, KeyError, TypeError):
                    drop_counters()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, field: str):
        extra = self.totals.setdefault(name, Totals()).extra
        extra.setdefault(field, 0)
        return extra

    def observers(self) -> dict:
        """Result hooks per totals name, with the (totals, field) counters each feeds."""
        poly = self.counter("polyring", "nonint_results")
        mul = self.counter("polyring.mul", "terms_out_max")
        compose = self.totals.setdefault("braidmor.compose", Totals())
        products = self.counter("braidmor.compose", "products")
        key = self.counter("braidmor.key", "distinct")
        seen_keys: set[int] = set()
        words = self.counter("rexgraph", "words")

        def count_nonint(p):
            if any(c.denominator != 1 for c in p.terms.values()):
                poly["nonint_results"] += 1

        def on_mul(p):
            count_nonint(p)
            if len(p.terms) > mul["terms_out_max"]:
                mul["terms_out_max"] = len(p.terms)
            if compose.active:
                products["products"] += 1

        def on_key(k):
            h = hash(k)
            if h not in seen_keys:
                seen_keys.add(h)
                key["distinct"] += 1

        def on_rex_graph(g):
            words["words"] += len(g.words)

        nonint = ("polyring", "nonint_results")
        return {
            "polyring.mul": (
                on_mul,
                [nonint, ("polyring.mul", "terms_out_max"), ("braidmor.compose", "products")],
            ),
            "polyring.add": (count_nonint, [nonint]),
            "braidmor.key": (on_key, [("braidmor.key", "distinct")]),
            "rexgraph.build_rex_graph": (on_rex_graph, [("rexgraph", "words")]),
        }

    def install(self, targets=TARGETS) -> None:
        resolved = [(_resolve(module_name, path), name) for module_name, path, name in targets]
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rexcalc" or n.startswith("rexcalc.")]
        hooks = self.observers()
        for (owner, original), name in resolved:
            if original is None:
                self.missing.append(name)
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self.wrap(original.__func__, name, hooks.get(name)))
            else:
                wrapper = self.wrap(original, name, hooks.get(name))
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def to_json(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "missing": self.missing,
            "totals": {name: t.to_json() for name, t in sorted(self.totals.items())},
            "spans": [s for s in self.spans if s is not None],
        }


def _resolve(module_name: str, path: str):
    """(owner, raw attribute value), or (None, None) when the name is gone."""
    try:
        owner = importlib.import_module(f"rexcalc.{module_name}")
    except ImportError:
        return None, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    raw = vars(owner).get(attr)
    if callable(raw) or isinstance(raw, (classmethod, staticmethod)):
        return owner, raw
    return None, None


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import rexcalc.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = rexcalc.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
