#!/usr/bin/env python3
"""Cold-process time to verdict of the rexcalc command line.

Usage, from the root of a checkout:

    python3 perfbench/bench.py --workload s4-sweep --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of CLI tasks.  Every task runs as a fresh
``python3 -m rexcalc.cli ...`` process, one process at a time (a closed loop
with one client), because every CLI user pays the cold cost: the cached
tables of the package start empty in each invocation.  Every task's exit
code and stdout are checked against a committed expectation
(``expected.json``) or, for the seeded ``eval`` tasks of cli-mix, against an
image recomputed outside the timed region by ``oracle.py``.

Every process runs through ``launch.py``, pinned to one CPU beside a
speed meter, and its time is its wall time scaled to a fixed reference CPU
speed (see ``launch.py``): on a shared machine a CPU's speed changes by up
to 2x within seconds, and raw wall times follow it.  The raw wall times are
printed on the ``# samples`` line.

``--trace 0`` interleaves full passes over the task list with set-up probes
(``setup_probe.py``) until ``--seconds`` is spent and prints the end-to-end
metrics:

  verdict_s    median scaled wall time, launch to exit, summed over one pass
  setup_s      median scaled wall time of a fresh process that imports
               rexcalc and builds the graphs and braid-move tables of the
               workload's elements, stopping before any path is composed or
               searched
  peak_rss_mb  largest peak resident memory of any task process
  pass_share   share of attempted tasks (and set-up probes) that passed
               their check

``--trace 1`` runs one untraced pass and one pass under ``tracer.py`` and
prints the per-layer metrics, with the tracing overhead as
``trace.overhead_s``.  The tracer's per-process files, spans included,
stay in ``.perfbench_work/`` until the next run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Earlier lines record the
machine, the load before and after, and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from hashlib import sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")
LAUNCH = os.path.join(HERE, "launch.py")

HASH_SEED = "0"
# processes still running this many seconds after --seconds are killed
MARGIN_S = 120.0
SEEDED_EVALS = 3
SETUP_SHARE = 0.2

S4_ELEMENTS = (
    "e 3 2 23 32 232 1 13 12 123 132 1232 21 213 121 1213 2132 12132 321 2321 1321 12321 21321 121321"
).split()


@dataclass
class Task:
    """One CLI invocation and the check its output must pass."""

    argv: list[str]
    expect_exit: int = 0
    expect_sha256: str | None = None
    expect_json: dict | None = None

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    def check(self, code: int, digest: str, stdout: bytes | None) -> bool:
        if code != self.expect_exit:
            return False
        if self.expect_json is not None:
            try:
                return json.loads(stdout) == self.expect_json
            except ValueError:
                return False
        return digest == self.expect_sha256


@dataclass
class Workload:
    """The task list of one workload, and the elements its set-up probe builds."""

    rank: int
    setup_words: list[str]
    tasks: list[Task]


# (rank, set-up elements, argv of the fixed tasks) per workload; cli-mix adds
# the seeded evals, and its set-up builds every element an eval may act on
# (oracle.ELEMENTS), so that set-up does not depend on the seed
FIXED = {
    "s4-sweep": (4, S4_ELEMENTS, ["verify fpc-s4 --format json"]),
    "w0-zam": (4, ["121321"], ["verify zam --rank 4 --format json"]),
    "line6": (6, ["123454321"], ["verify family --rank 6 --format json"]),
    "cli-mix": (
        4,
        ["13231", "12321", "23121", "12312"],
        [
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
        ],
    ),
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, or preparation failed)."""


def child_env() -> dict[str, str]:
    """The environment of every child: no REXCALC_* settings, fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REXCALC_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Outcome:
    time_s: float  # wall time scaled to the reference CPU speed
    wall_s: float
    code: int
    maxrss_kb: int
    digest: str
    stdout: bytes | None
    stderr: str
    timed_out: bool

    @property
    def scale(self) -> float:
        """Scaled over raw wall time, for times measured inside the process."""
        return self.time_s / self.wall_s if self.wall_s > 0 else 1.0

    def detail(self) -> str:
        if self.timed_out:
            return "timed out: killed at the run's deadline"
        return f"exit {self.code}, sha256 {self.digest[:12]} {self.stderr.strip()[-200:]}"


def run_process(cmd: list[str], keep_stdout: bool, deadline: float) -> Outcome:
    """Run one command through ``launch.py`` and collect its outcome.

    The launcher reports the command's wall time, exit code, peak RSS and
    CPU speed.  Stdout is hashed as it streams, so the harness never holds
    a large output.  The whole process group is killed at ``deadline``.
    """
    digest = sha256()
    kept = [] if keep_stdout else None
    report_r, report_w = os.pipe()
    try:
        with tempfile.TemporaryFile(dir=WORK) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", LAUNCH, str(report_w), *cmd],
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                pass_fds=(report_w,),
                start_new_session=True,
            )
            os.close(report_w)
            report_w = -1
            killed = threading.Event()
            killer = threading.Timer(max(0.0, deadline - start), kill_group, (proc.pid, killed))
            killer.start()
            try:
                for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                    digest.update(chunk)
                    if kept is not None:
                        kept.append(chunk)
            except BaseException:
                kill_group(proc.pid)
                raise
            finally:
                proc.stdout.close()
                proc.wait()
                killer.cancel()
            report = os.read(report_r, 256).split()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
    finally:
        os.close(report_r)
        if report_w >= 0:
            os.close(report_w)
    if len(report) == 5:
        wall, code, maxrss = float(report[0]), int(report[1]), int(report[2])
        scaled = (wall - float(report[3])) * float(report[4])
    else:  # the launcher itself was killed
        wall, code, maxrss = time.perf_counter() - start, proc.returncode, 0
        scaled = wall
    stdout = None if kept is None else b"".join(kept)
    return Outcome(scaled, wall, code, maxrss, digest.hexdigest(), stdout, stderr, killed.is_set())


def kill_group(pid: int, killed: threading.Event | None = None) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
        if killed is not None:
            killed.set()
    except ProcessLookupError:
        pass


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "rexcalc.cli", *argv]


def load_workload(name: str, seed: int, deadline: float) -> Workload:
    rank, setup_words, fixed = FIXED[name]
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    tasks = []
    for text in fixed:
        exp = expected[text]
        tasks.append(Task(text.split(), exp["exit"], exp["sha256"]))
    if name == "cli-mix":
        cmd = [sys.executable, os.path.join(HERE, "oracle.py"), str(seed), str(SEEDED_EVALS)]
        out = run_process(cmd, True, deadline)
        if out.code != 0:
            raise SetupError(f"oracle failed: {out.stderr.strip()}")
        for item in json.loads(out.stdout):
            tasks.append(Task(item["argv"], 0, expect_json=item["expect"]))
    return Workload(rank, list(setup_words), tasks)


def prepare(deadline: float) -> None:
    """Check the sources are there, compile bytecode once and warm the file cache."""
    if not os.path.isfile(os.path.join(SRC, "rexcalc", "cli.py")):
        raise SetupError(f"no rexcalc sources under {SRC}")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    for cmd in (
        [sys.executable, "-m", "compileall", "-q", SRC, HERE],
        [sys.executable, "-c", "import rexcalc.cli"],
    ):
        out = run_process(cmd, False, deadline)
        if out.code != 0:
            raise SetupError(f"{' '.join(cmd[1:])} failed: {out.stderr.strip()}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    timed_out: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, ok: bool, out: Outcome) -> None:
        self.attempted += 1
        self.timed_out += out.timed_out
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {out.detail()}")


def run_pass(workload: Workload, tally: Tally, deadline: float, traced: bool = False):
    """One pass over the task list.

    Returns the summed scaled time, the summed raw wall time, the peak RSS
    in KB and, for a traced pass, each task's (trace file, time scale).
    """
    total, wall, peak, traces = 0.0, 0.0, 0, []
    for i, task in enumerate(workload.tasks):
        cmd = cli_cmd(task.argv)
        trace = os.path.join(WORK, f"trace-{i}.json")
        if traced:
            with contextlib.suppress(FileNotFoundError):
                os.remove(trace)  # a stale file must not stand in for a crashed tracer
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), trace, *task.argv]
        out = run_process(cmd, task.expect_json is not None, deadline)
        if traced and os.path.exists(trace):
            traces.append((trace, out.scale))
        ok = not out.timed_out and task.check(out.code, out.digest, out.stdout)
        tally.record(task.name, ok, out)
        total += out.time_s
        wall += out.wall_s
        peak = max(peak, out.maxrss_kb)
    return total, wall, peak, traces


def run_setup(workload: Workload, tally: Tally, deadline: float) -> Outcome:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), str(workload.rank), *workload.setup_words]
    out = run_process(cmd, False, deadline)
    tally.record("setup", out.code == 0 and not out.timed_out, out)
    return out


def measure(workload: Workload, seconds: float, deadline: float) -> tuple[dict, Tally, dict]:
    """Interleave task passes and set-up probes until ``seconds`` are spent.

    After the first pass, probes run whenever they have used at most
    SETUP_SHARE of the elapsed time, so cheap set-ups are sampled many
    times and an expensive one does not crowd out the passes.  Items start
    until ``seconds`` have passed, so a run overshoots by at most one item;
    each kind runs at least once.
    """
    tally = Tally()
    passes: list[float] = []
    setups: list[float] = []
    walls: dict[str, list[float]] = {"pass_wall_s": [], "setup_wall_s": []}
    peak = 0
    start = time.perf_counter()
    end = start + seconds
    while True:
        now = time.perf_counter()
        pick_setup = bool(passes) and (not setups or sum(setups) <= SETUP_SHARE * (now - start))
        if passes and setups and now >= end:
            break
        if pick_setup:
            out = run_setup(workload, tally, deadline)
            setups.append(out.time_s)
            walls["setup_wall_s"].append(out.wall_s)
        else:
            scaled, wall, rss, _ = run_pass(workload, tally, deadline)
            passes.append(scaled)
            walls["pass_wall_s"].append(wall)
            peak = max(peak, rss)
    metrics = {
        "verdict_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak / 1024, "unit": "MB"},
        "pass_share": {"value": (tally.attempted - tally.failed) / tally.attempted, "unit": "share"},
    }
    samples = {"passes": len(passes), "setups": len(setups), "pass_s": passes, "setup_s": setups, **walls}
    return metrics, tally, samples


# per-layer metric -> (totals names, field, unit); a field is summed over the
# names and over processes.  A time metric must not read a constant 0 on a
# workload that never calls its function, so functions that only some
# workloads call get call counts but no times of their own (``key``,
# ``apply``), and the fpc check entry points share one pair of times; their
# call counts say which ones ran.
FPC = ("fpc.search", "fpc.zam", "fpc.family")
LAYER_FIELDS = {
    "polyring.mul.calls": (("polyring.mul",), "calls", "count"),
    "polyring.mul.s": (("polyring.mul",), "s", "s"),
    "polyring.mul.terms_out_max": (("polyring.mul",), "terms_out_max", "count"),
    "polyring.add.calls": (("polyring.add",), "calls", "count"),
    "polyring.split.calls": (("polyring.split",), "calls", "count"),
    "polyring.split.s": (("polyring.split",), "s", "s"),
    "polyring.key.calls": (("polyring.key",), "calls", "count"),
    "polyring.nonint_results": (("polyring",), "nonint_results", "count"),
    "bsbimod.from_tensor.calls": (("bsbimod.from_tensor",), "calls", "count"),
    "bsbimod.from_tensor.s": (("bsbimod.from_tensor",), "s", "s"),
    "bsbimod.right_mul.calls": (("bsbimod.right_mul",), "calls", "count"),
    "braidmor.apply_edge.calls": (("braidmor.apply_edge",), "calls", "count"),
    "braidmor.apply_edge.s": (("braidmor.apply_edge",), "s", "s"),
    "braidmor.edge_matrix.calls": (("braidmor.edge_matrix",), "calls", "count"),
    "braidmor.edge_matrix.built": (("braidmor.for_edge",), "calls", "count"),
    "braidmor.tables.s": (("braidmor.tables",), "s", "s"),
    "braidmor.compose.calls": (("braidmor.compose",), "calls", "count"),
    "braidmor.compose.s": (("braidmor.compose",), "s", "s"),
    "braidmor.compose.products": (("braidmor.compose",), "products", "count"),
    "braidmor.path_matrix.calls": (("braidmor.path_matrix",), "calls", "count"),
    "braidmor.key.calls": (("braidmor.key",), "calls", "count"),
    "braidmor.key.distinct": (("braidmor.key",), "distinct", "count"),
    "braidmor.apply.calls": (("braidmor.apply",), "calls", "count"),
    "symgroup.reduced_words.s": (("symgroup.reduced_words",), "s", "s"),
    "rexgraph.words": (("rexgraph",), "words", "count"),
    "rexgraph.build_rex_graph.s": (("rexgraph.build_rex_graph",), "s", "s"),
    "rexgraph.build_conflated.s": (("rexgraph.build_conflated",), "s", "s"),
    "rexgraph.lift.calls": (("rexgraph.lift",), "calls", "count"),
    "rexgraph.lift.s": (("rexgraph.lift",), "s", "s"),
    "fpc.search.calls": (("fpc.search",), "calls", "count"),
    "fpc.zam.calls": (("fpc.zam",), "calls", "count"),
    "fpc.family.calls": (("fpc.family",), "calls", "count"),
    "fpc.check.s": (FPC, "s", "s"),
    "fpc.check.self_s": (FPC, "self_s", "s"),
    "cli.main.self_s": (("cli.main",), "self_s", "s"),
}
MAX_FIELDS = {"terms_out_max"}
TIME_FIELDS = {"s", "self_s"}


def layer_metrics(traces: list[tuple[str, float]]) -> dict:
    """Merge the tracer's per-process totals into the per-layer metrics.

    Each trace file comes with its process's time scale, which turns the
    times measured inside the process into scaled times.

    A metric whose wrapped name or counter was missing in any process is
    left out (absent), never reported as zero.  A wrapped function that is
    present but never called reads 0 calls.
    """
    merged: dict[tuple[str, str], float] = {}
    missing: set[str] = set()
    imports = []
    for path, scale in traces:
        with open(path) as fh:
            data = json.load(fh)
        imports.append(data["import_s"] * scale)
        missing.update(data["missing"])
        for name, fields in data["totals"].items():
            for key, value in fields.items():
                if key in TIME_FIELDS:
                    value *= scale
                old = merged.get((name, key), 0)
                merged[(name, key)] = max(old, value) if key in MAX_FIELDS else old + value
    metrics = {}
    for metric, (names, key, unit) in LAYER_FIELDS.items():
        if any(n in missing or f"{n}.{key}" in missing or (n, key) not in merged for n in names):
            continue
        metrics[metric] = {"value": sum(merged[(n, key)] for n in names), "unit": unit}
    calls = metrics.get("braidmor.edge_matrix.calls")
    built = metrics.get("braidmor.edge_matrix.built")
    if calls and built:
        # no lookups at all counts as no hits
        rate = 1 - built["value"] / calls["value"] if calls["value"] else 0.0
        metrics["braidmor.edge_matrix.hit_rate"] = {"value": rate, "unit": "share"}
    if imports:
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    return metrics


def measure_traced(workload: Workload, deadline: float) -> tuple[dict, Tally, dict]:
    """One untraced pass, then one traced pass; each task is checked in both."""
    tally = Tally()
    plain, plain_wall, _, _ = run_pass(workload, tally, deadline)
    traced, traced_wall, _, traces = run_pass(workload, tally, deadline, traced=True)
    metrics = layer_metrics(traces)
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    samples = {"untraced_s": plain, "traced_s": traced, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, tally, samples


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIXED))
    parser.add_argument("--seed", type=int, required=True, help="drives the seeded cli-mix tasks only")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + args.seconds + MARGIN_S
    before = machine_info()
    try:
        prepare(deadline)
        workload = load_workload(args.workload, args.seed, deadline)
        if args.trace:
            metrics, tally, samples = measure_traced(workload, deadline)
        else:
            metrics, tally, samples = measure(workload, args.seconds, deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps({"before": before, "after_loadavg": os.getloadavg()}))
    print("# samples " + json.dumps({**samples, "timed_out": tally.timed_out}))
    for failure in tally.failures:
        print(f"# failed {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
