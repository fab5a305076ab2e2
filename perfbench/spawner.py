"""Launch one CLI request at a time and report its own resource use.

Protocol: one JSON object per line on stdin, ``{"argv": [...], "out":
path, "err": path}``; one JSON object per line on stdout with the wall
time, the child's rusage from ``os.wait4``, its exit code, and the size
and sha256 of what it wrote to stdout.  The child's stdout is drained
through a pipe, hashed as it arrives and copied to ``out``.

Why a separate process: on Linux a child's ``ru_maxrss`` starts from the
high-water RSS of the process that spawned it, because the kernel records
the parent's peak when the child calls exec.  The harness holds oracle
data and request outputs and grows past the CLI's own footprint; this
launcher imports only small standard modules and stays below it, so the
peak RSS reported for each request is that request's own.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

CHUNK = 1 << 16
CPUS = sorted(os.sched_getaffinity(0))


def _spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def fastest_cpu() -> int:
    """The CPU that runs a short fixed loop fastest right now.

    On a virtual machine each CPU slows down while the host shares its core
    with another guest, for seconds at a time; starting the request on the
    CPU that is fast at that moment keeps that noise out of its timing.
    """
    speeds = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speeds.append((_spin(), cpu))
    os.sched_setaffinity(0, CPUS)
    return min(speeds)[1]


def run_one(argv: list[str], out_path: str, err_path: str) -> dict:
    digest = hashlib.sha256()
    size = 0
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        os.sched_setaffinity(0, {fastest_cpu()})  # the child inherits this; the launcher drops it
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        os.sched_setaffinity(0, CPUS)
        try:
            while chunk := child.stdout.read1(CHUNK):
                digest.update(chunk)
                size += len(chunk)
                out.write(chunk)
        finally:
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    # wait4 reaped the child; tell Popen so it does not wait again.
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "rc": child.returncode,
        "bytes": size,
        "sha256": digest.hexdigest(),
    }


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run_one(req["argv"], req["out"], req["err"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
