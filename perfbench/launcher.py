"""Spawns the benchmark's child processes, and gauges the host's speed around each.

On Linux a child's peak RSS (ru_maxrss) starts at the peak of the process
that spawned it.  run.py grows as it checks tours, so it hands every spawn
to this process, which holds little: its peak, about 11 MB, stays under
that of any kneser child, 15 MB and more.

The host's speed drifts by 20% and more within seconds.  This process pins
itself, and so its children, to one CPU and gauges that CPU's speed with a
fixed probe loop: before and after each child, and every SAMPLE_PERIOD_S
while it runs, from a thread that counts only the CPU time it is given.
The mean probe time tells run.py how fast the host ran meanwhile.  The
samples taken during a child steal about 1% of its CPU.

Protocol, one JSON array per line: stdin gives [args, stdout, stderr,
timeout_s] and runs `python *args` with stdout and stderr sent to those
files; stdout answers [wall_s, maxrss_kb, exit_code, probe_s], exit_code
null when the child ran past timeout_s and was killed.  The children
inherit this process's environment.  Ends when stdin closes.
"""

import contextlib
import json
import os
import signal
import sys
import threading
import time

PROBE_STEPS = 8000
SAMPLE_PERIOD_S = 0.25


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def probe() -> float:
    """CPU seconds this thread spends on a fixed integer-and-dict loop."""
    t0 = time.thread_time()
    table = {}
    x = 12345
    for i in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 0xFFFFF] = i ^ (x >> 7)
    return time.thread_time() - t0


def idle_probe() -> float:
    return sorted(probe() for _ in range(3))[1]


class Sampler(threading.Thread):
    """Runs the probe every SAMPLE_PERIOD_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.halt = threading.Event()
        self.samples: list[float] = []

    def run(self) -> None:
        while not self.halt.wait(SAMPLE_PERIOD_S):
            self.samples.append(probe())


def spawn(args: list[str], stdout: str, stderr: str, timeout: float) -> tuple[list, list]:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    sampler = Sampler()
    sampler.start()
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ,
                         file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
        answer = [time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status)]
    except _Timeout:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        answer = [time.perf_counter() - t0, 0, None]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sampler.halt.set()
        sampler.join()
    return answer, sampler.samples


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    before = idle_probe()
    for line in sys.stdin:
        answer, samples = spawn(*json.loads(line))
        after = idle_probe()
        probes = [before, *samples, after]
        print(json.dumps(answer + [sum(probes) / len(probes)]), flush=True)
        before = after
    return 0


if __name__ == "__main__":
    sys.exit(main())
