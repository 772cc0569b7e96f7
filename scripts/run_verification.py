#!/usr/bin/env python3
"""Run every verification suite end to end and print a timing summary.

Exits nonzero if any suite reports an unexpected verdict.
"""

from __future__ import annotations

import sys
import time

from rexcalc import fpc


def timed(label, fn):
    t0 = time.perf_counter()
    result = fn()
    print(f"{label:<44} {'ok' if result else 'UNEXPECTED':>10}   {time.perf_counter() - t0:6.1f}s")
    return result


def counterexample_differs() -> bool:
    counterexample = fpc.reproduce_counterexample()
    return counterexample.matrices_differ and counterexample.dots_a != counterexample.dots_b


def extra_pair_differs() -> bool:
    img_a, img_b = fpc.family_extra_pair()
    return img_a != img_b


def main() -> int:
    print(f"{'suite':<44} {'verdict':>10}   {'time':>7}")
    ok = True
    ok &= timed("12321 counterexample (images + dots differ)", counterexample_differs)
    for n in (3, 4, 5):
        ok &= timed(f"source/sink identities, rank {n}", lambda n=n: fpc.check_zam_identities(n).all_hold)
        ok &= timed(f"down-up-down = up-down-up, rank {n}", lambda n=n: fpc.check_dud_udu_all(n))
    ok &= timed("path equivalence lemmas", lambda: fpc.check_equivalence_lemmas().all_hold)
    ok &= timed("S_4 sweep (24 elements)", lambda: fpc.check_s4_sweep().all_expected)
    ok &= timed("line family, rank 4", lambda: fpc.check_family(4).morphisms_differ)
    ok &= timed("line family, rank 5", lambda: fpc.check_family(5).morphisms_differ)
    ok &= timed("source-start pair separates on one element", extra_pair_differs)
    for n in (3, 4):
        ok &= timed(
            f"refined conjecture, rank {n}, bound 10",
            lambda n=n: fpc.check_refined_conjecture(n, 10).holds,
        )
    ok &= timed("simplification soundness on the rank-4 cycle", lambda: fpc.check_simplify_soundness())
    print("all verdicts as expected" if ok else "UNEXPECTED VERDICTS FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
