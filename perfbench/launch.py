"""Run one command on one CPU and report its wall time, exit code, peak RSS and CPU speed.

Usage: python3 -I -S perfbench/launch.py FD COMMAND [ARG ...]

Writes "WALL_S EXIT_CODE MAXRSS_KB METER_S SPEED" to the inherited file
descriptor FD once the command has exited.  The wall time runs from the
fork to the reaping of the command.

A child's ``ru_maxrss`` starts at the resident size of the process it was
forked from, so a command forked straight from the benchmark harness would
report the harness's memory whenever its own peak is smaller.  Run with
``-I -S``, this launcher imports only built-in modules and stays near 8 MB,
below the peak of any Python process that imports rexcalc.

Speed meter.  On a shared machine the speed of a CPU changes by up to 2x
within seconds, with what runs beside it, and a run's wall times follow.
The launcher therefore pins itself and the command to the CPU it runs on
and, while the command runs, times a fixed interpreter loop on that CPU
every PERIOD_S, in thread CPU time.  SPEED is the mean of REF_S over those
times: the command's speed relative to a CPU that runs the loop in REF_S.
METER_S is the CPU time the loop took from the command.  The harness
reports ``(WALL_S - METER_S) * SPEED``, the wall time scaled to that
reference CPU.  The command gets one CPU: a program that used several
would need this revisited.
"""

import os
import select
import sys
import time

PERIOD_S = 0.05
REF_S = 0.001


def meter() -> float:
    """Thread CPU time of a fixed loop of tuple-keyed dict updates."""
    start = time.thread_time()
    acc = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * 3 // 7
    return time.thread_time() - start


def current_cpu() -> int:
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = -1
    return cpu if cpu in allowed else min(allowed)


def main() -> int:
    fd = int(sys.argv[1])
    cmd = sys.argv[2:]
    os.sched_setaffinity(0, {current_cpu()})
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(fd)
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    exited = os.pidfd_open(pid)
    samples = []
    while True:
        samples.append(meter())
        if select.select([exited], [], [], PERIOD_S)[0]:
            break
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    speed = sum(REF_S / s for s in samples) / len(samples)
    report = f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss} {sum(samples)!r} {speed!r}"
    os.write(fd, report.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
