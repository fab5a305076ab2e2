"""Cold-process benchmark of the hybridseq CLI, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload in turn
    python3 perfbench/run.py --workload NAME --seed N --profile
    python3 perfbench/run.py --reconcile

Run from the root of a checkout; the program is taken from ``src/`` there.
A workload is a seeded list of ``python -m hybridseq ...`` requests run as
a closed loop with one client: each request is a fresh process, started
when the previous one has ended.  Passes over the list repeat until
``--seconds`` have gone by (at least four; every request's stdout digest
is compared with an earlier run of itself).  Every output is checked by an
independent oracle.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics from a traced run with ``--trace 1``.
Intermediate files and a full record of each run go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import pstats
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from workloads import Request

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 3  # per round; one round before every pass
MIN_PASSES = 4
TAIL_BEYOND = 10
PROFILE_TOP = 30
SUITES = workloads.SUITES

UNITS = {"s": "s", "calls": "count", "ratio": "ratio", "bytes": "bytes"}


@dataclass
class Outcome:
    req: Request
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    rc: int
    bytes: int
    sha256: str
    problems: list[str]
    side: Path | None  # trace JSON or pstats file, when traced or profiled


class Spawner:
    """The launcher process (spawner.py) that runs each request."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )

    def run(self, argv: list[str], out: Path, err: Path) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "out": str(out), "err": str(err)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:  # stuck in a request: its child then dies of SIGPIPE
            self.proc.kill()
            self.proc.wait()


class Harness:
    """Runs requests through the launcher, checks them and keeps the outcomes.

    Grid files and captured outputs live in a directory of this run's own
    under .perfbench/, removed when the harness closes.
    """

    def __init__(self, spawner: Spawner) -> None:
        self.spawner = spawner
        self.digests: dict[str, str] = {}
        self.outcomes: list[Outcome] = []
        WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    def __enter__(self) -> Harness:
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def build(self, name: str, seed: int) -> tuple[list[Request], list[Request]]:
        return workloads.build(name, seed, self.tmp / "grids")

    def execute(self, req: Request, slot: str, mode: str = "plain") -> Outcome:
        """Run one request; mode is plain (``python -m hybridseq``), trace or profile."""
        out, err, side = self.tmp / f"{slot}.out", self.tmp / f"{slot}.err", None
        if mode == "plain":
            argv = [sys.executable, "-m", "hybridseq", *req.argv]
        else:
            side = self.tmp / f"{slot}.{mode}"
            side.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), mode, str(side), *req.argv]
        r = self.spawner.run(argv, out, err)
        problems = oracle.check(req, r["rc"], out.read_bytes(), err.read_bytes())
        if self.digests.setdefault(slot, r["sha256"]) != r["sha256"]:
            problems.append("stdout differs from an earlier run of the same request")
        if side is not None and not side.exists():
            problems.append(f"no {mode} output")
            side = None
        outcome = Outcome(req, r["wall_s"], r["cpu_s"], r["maxrss_kb"], r["rc"], r["bytes"],
                          r["sha256"], problems, side)
        self.outcomes.append(outcome)
        return outcome

    def run_pass(self, reqs: list[Request], prefix: str, mode: str = "plain") -> list[Outcome]:
        """Run every request once and return the outcomes in list order.

        The run order changes from pass to pass, so a slow spell of the host
        does not land on the same requests in every pass.
        """
        order = list(range(len(reqs)))
        random.Random(len(self.outcomes)).shuffle(order)
        done = {k: self.execute(reqs[k], f"{prefix}{k:02d}", mode) for k in order}
        return [done[k] for k in range(len(reqs))]

    def self_test(self) -> list[str]:
        """Warm the bytecode caches, then prove the oracle catches a corrupted line."""
        self.execute(workloads.SETUP, "setup")
        self.execute(workloads.SELF_TEST, "selftest")
        return oracle.self_test(workloads.SELF_TEST, (self.tmp / "selftest.out").read_bytes())

    def setup_round(self) -> float:
        """Best cold wall time of a few requests that do no work (``table``)."""
        return min(self.execute(workloads.SETUP, "setup").wall_s for _ in range(SETUP_RUNS))


# --- metrics --------------------------------------------------------------


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above it."""
    return int(100 - 100 * TAIL_BEYOND / samples)


def best_of(passes: list[list[Outcome]], field: str) -> list[float]:
    """Each request's lowest figure over the passes.

    Other tenants of a shared host only ever add time, and they come and
    go over seconds, so the lowest of a request's runs, spaced a pass
    apart, is the figure that repeats; medians of single runs drift with
    the host's load.
    """
    return [min(getattr(p[i], field) for p in passes) for i in range(len(passes[0]))]


def end_to_end(passes: list[list[Outcome]], setup_rounds: list[float]) -> tuple[dict, dict]:
    latencies = best_of(passes, "wall_s")
    wall = sum(latencies)
    items = sum(o.req.items for o in passes[0])
    pct = tail_percentile(len(latencies))
    metrics = {
        "setup_s": (statistics.median(setup_rounds), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(best_of(passes, "cpu_s")), "s"),
        "req_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "req_tail_ms": (1000 * statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], "ms"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (max(o.maxrss_kb for p in passes for o in p) / 1024, "MB"),
    }
    notes = {
        "req_tail_percentile": pct,
        "req_samples": len(latencies),
        "passes": len(passes),
        "items_per_pass": items,
        "pass_wall_s": [sum(o.wall_s for o in p) for p in passes],
        "setup_rounds_s": setup_rounds,
    }
    return metrics, notes


def _trace_totals(traced: list[Outcome]) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer figures for one traced pass, summed over its requests, and
    why any expected figure is absent."""
    calls, total, self_time = Counter(), Counter(), Counter()
    hits = Counter()
    import_s = 0.0
    for o in traced:
        if o.side is None:
            continue
        t = json.loads(o.side.read_text(encoding="utf-8"))
        import_s += t["import_s"]
        calls.update(t["calls"])
        total.update(t["total"])
        self_time.update(t["self"])
        for key, (h, m) in t["caches"].items():
            hits[key + "_hits"] += h
            hits[key + "_lookups"] += h + m
    m = {
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (total["cli.main"], "s"),
        "cli.self_s": (self_time["cli.main"], "s"),
        "cli.stdout_bytes": (sum(o.bytes for o in traced), "bytes"),
        "identities.run_suite_s": (total["identities.run_suite"], "s"),
        "identities.cases": (calls["identities.cases"], "count"),
    }
    for suite in SUITES:
        m[f"identities.{suite}_s"] = (total[f"identities.{suite}"], "s")
    absent = {}
    for key in ("prod", "hyb"):
        if hits[key + "_lookups"]:
            m[f"identities.{key}_hit_ratio"] = (hits[key + "_hits"] / hits[key + "_lookups"], "ratio")
            m[f"identities.{key}_lookups"] = (hits[key + "_lookups"], "count")
        else:
            absent[f"identities.{key}_hit_ratio"] = f"identities._{key} has no cache_info()"
    for name, keys in (
        ("hybrid.mul", "calls s"),
        ("hybrid.mul_int", "calls"),
        ("hybrid.mul_fraction", "calls"),
        ("hybrid.mul_quadext", "calls"),
        ("hybrid.to_json_dict", "s"),
        ("exactarith.quadext_pow", "calls s"),
        ("exactarith.quadext_new", "calls"),
        ("exactarith.format_rational", "calls s"),
        ("sequences.seqcache_new", "calls"),
        ("sequences.seqcache_value", "calls s"),
        ("sequences.hybrid_seq", "calls s"),
        ("sequences.horadam", "calls"),
        ("binet.make_context", "calls s"),
        ("binet.binet_horadam", "calls s"),
        ("genfunc.expand", "calls s"),
        ("genfunc.check_expansion", "s"),
    ):
        for key in keys.split():
            value = calls[name] if key == "calls" else total[name]
            m[f"{name}_{key}"] = (value, UNITS[key])
    return m, absent


# (metric, function name in its pstats key, file it must be defined in)
PROFILED = (
    ("exactarith.fraction_new_calls", "__new__", "fractions.py"),
    ("exactarith.fraction_mul_calls", "_mul", "fractions.py"),
    ("exactarith.gcd_calls", "<built-in method math.gcd>", "~"),
)


def load_profile(outcomes: list[Outcome]) -> pstats.Stats | None:
    files = [str(o.side) for o in outcomes if o.side is not None]
    return pstats.Stats(*files) if files else None


def profiled_counts(stats: pstats.Stats | None) -> dict[str, int]:
    counts = dict.fromkeys((name for name, _, _ in PROFILED), 0)
    if stats is None:
        return counts
    for (filename, _, func), (_, ncalls, _, _, _) in stats.stats.items():
        for name, want_func, want_file in PROFILED:
            if func == want_func and (filename == want_file or filename.endswith("/" + want_file)):
                counts[name] += ncalls
    return counts


def call_table(stats: pstats.Stats | None) -> dict[str, int]:
    """Call count of every profiled function, keyed by a location-free name."""
    if stats is None:
        return {}
    return {
        f"{Path(filename).name}:{line}({func})": ncalls
        for (filename, line, func), (_, ncalls, _, _, _) in stats.stats.items()
    }


def top_rows(stats: pstats.Stats, limit: int) -> list[dict]:
    rows = sorted(stats.stats.items(), key=lambda item: item[1][3], reverse=True)[:limit]
    return [
        {"function": f"{Path(fn).name}:{line}({func})", "ncalls": nc, "tottime_s": tt, "cumtime_s": ct}
        for (fn, line, func), (_, nc, tt, ct, _) in rows
    ]


def repeat(seconds: float, minimum: int, step) -> list:
    """Call step() at least ``minimum`` times, and again while the next call
    is expected to end within ``seconds`` of the first."""
    results, start = [], perf_counter()
    while len(results) < minimum or (perf_counter() - start) * (len(results) + 1) / len(results) <= seconds:
        results.append(step())
    return results


def per_layer(harness: Harness, reqs: list[Request], probe: list[Request]):
    """One plain pass, one traced pass and one profiled pass.

    Counts repeat exactly from run to run; per-layer times have no bound,
    so a single traced pass is enough.
    """
    plain = harness.run_pass(reqs, "w")
    traced = harness.run_pass(reqs + probe, "w", "trace")
    profiled = harness.run_pass(reqs + probe, "w", "profile")
    metrics, absent = _trace_totals(traced)
    for name, count in profiled_counts(load_profile(profiled)).items():
        metrics[name] = (count, "count")
    traced_wall = sum(o.wall_s for o in traced[: len(reqs)])
    metrics["trace.overhead_ratio"] = (traced_wall / sum(o.wall_s for o in plain), "ratio")
    expected_cases = sum(r.cases for r in reqs + probe if r.command == "verify")
    notes = {"expected_cases": expected_cases, "absent": absent or "none"}
    problems = []
    if metrics["identities.cases"][0] != expected_cases:
        problems.append(f"traced case count {metrics['identities.cases'][0]} != {expected_cases}")
    return metrics, notes, problems


# --- reporting -------------------------------------------------------------


def git_head() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_head": git_head(),
        "seed": seed,
    }


def report(workload: str, seed: int, trace: int, metrics: dict, notes: dict, outcomes: list[Outcome],
           problems: list[str]) -> dict:
    failed = sum(1 for o in outcomes if o.problems) + (1 if problems else 0)
    attempted = len(outcomes)
    env = environment(seed)
    print(f"# {workload}  seed={seed}  trace={trace}  python={env['python']}  nproc={env['nproc']}"
          f"  git={env['git_head'] or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:40s} {value:16.6f} {unit}")
    print(f"{workload:12s} {'fail_ratio':40s} {failed}/{attempted} = {failed / attempted:.6f}")
    for key, value in notes.items():
        if not isinstance(value, list):
            print(f"{workload:12s} note {key} = {value}")
    for o in outcomes:
        for problem in o.problems:
            print(f"FAIL {' '.join(o.req.argv)}: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    record = {
        "workload": workload,
        "trace": trace,
        "environment": env,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "notes": notes,
        "fail_ratio": failed / attempted,
        "requests": [
            {"argv": o.req.argv, "wall_s": o.wall_s, "cpu_s": o.cpu_s, "maxrss_kb": o.maxrss_kb,
             "bytes": o.bytes, "sha256": o.sha256, "problems": o.problems}
            for o in outcomes
        ],
    }
    path = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


# --- modes -----------------------------------------------------------------


def run_workload(spawner: Spawner, name: str, seed: int, seconds: float, trace: int) -> dict:
    with Harness(spawner) as harness:
        reqs, probe = harness.build(name, seed)
        problems = harness.self_test()
        if trace:
            metrics, notes, trace_problems = per_layer(harness, reqs, probe)
            problems += trace_problems
        else:
            rounds = repeat(seconds, MIN_PASSES, lambda: (harness.setup_round(), harness.run_pass(reqs, "w")))
            metrics, notes = end_to_end([p for _, p in rounds], [s for s, _ in rounds])
        notes["cases"] = sum(r.cases for r in reqs)
        return report(name, seed, trace, metrics, notes, harness.outcomes, problems)


def run_profile(spawner: Spawner, name: str, seed: int) -> dict:
    """Two cProfile passes; their call counts must agree exactly."""
    with Harness(spawner) as harness:
        reqs, _ = harness.build(name, seed)
        runs = [harness.run_pass(reqs, "w", "profile") for _ in range(2)]
        stats = [load_profile(r) for r in runs]
        per_request = [{"argv": o.req.argv, **profiled_counts(load_profile([o]))} for o in runs[0]]
    tables = [call_table(s) for s in stats]
    named = [profiled_counts(s) for s in stats]
    result = {
        "workload": name,
        "environment": environment(seed),
        "counts": named[0],
        "counts_repeat_exactly": tables[0] == tables[1] and named[0] == named[1],
        "functions_compared": len(tables[0]),
        "per_request": per_request,
        "top_by_cumtime": top_rows(stats[0], PROFILE_TOP),
    }
    path = WORK / "results" / f"profile-{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    failed = sum(1 for o in harness.outcomes if o.problems)
    for metric, count in named[0].items():
        print(f"{name:12s} {metric:40s} {count}")
    print(f"{name:12s} counts repeat exactly over {len(tables[0])} functions: "
          f"{result['counts_repeat_exactly']}  ({path.relative_to(ROOT)})")
    return {"correct": failed == 0 and result["counts_repeat_exactly"],
            "attempted": len(harness.outcomes), "failed": failed, "counts": named[0]}


RECONCILE = (
    Request(["verify", "--suite", "all"], "verify", cases=workloads.grid_cases(workloads.DEFAULT_GRID, "all")),
    Request(["binet", "--p", "1", "--q", "1", "--to", "1500"], "binet", params=(1, 1, 0, 1), lo=0, hi=1500),
)


def run_reconcile(spawner: Spawner) -> dict:
    """Cold runs of the two commands the ROADMAP baseline quotes."""
    out = {}
    with Harness(spawner) as harness:
        for k, req in enumerate(RECONCILE):
            walls = [harness.execute(req, f"reconcile{k}").wall_s for _ in range(3)]
            command = "hybridseq " + " ".join(req.argv)
            out[command] = {"wall_s_min": min(walls), "wall_s_median": statistics.median(walls)}
            print(f"{command:45s} wall min {min(walls):.3f} s  median {statistics.median(walls):.3f} s")
    failed = sum(1 for o in harness.outcomes if o.problems)
    return {"correct": failed == 0, "attempted": len(harness.outcomes), "failed": failed, "runs": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="cProfile count run, made twice")
    parser.add_argument("--reconcile", action="store_true", help="time the ROADMAP baseline commands")
    args = parser.parse_args()

    if not (ROOT / "src" / "hybridseq" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'hybridseq'} is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    spawner = Spawner(env)
    try:
        if args.reconcile:
            results = [run_reconcile(spawner)]
        elif args.profile:
            results = [run_profile(spawner, name, args.seed) for name in names]
        else:
            results = [run_workload(spawner, name, args.seed, args.seconds, args.trace) for name in names]
    finally:
        spawner.close()
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
