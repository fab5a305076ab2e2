"""Seeded request lists for the benchmark workloads.

Each workload is a fixed template of request shapes (command, format,
window length, grid size) whose parameter values are drawn from the seed.
The template keeps the amount of work per pass the same for every seed,
so runs with different seeds can be compared; the seed changes the
numbers the program computes.  Why each workload exists, and which layers
it loads or bypasses, is recorded in README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SUITES = (
    "catalan",
    "cassini",
    "docagne",
    "adjacent-commutator",
    "lucas-fib-exchange",
    "square-difference",
    "horadam-commutator",
    "diag-commutator",
)
EXTENDED = 5  # extended-domain probe indices m = -5..-1


@dataclass(frozen=True)
class Grid:
    ps: tuple[int, ...]
    qs: tuple[int, ...]
    ab: tuple[tuple[int | str, int | str], ...]
    nmax: int
    rmax: int

    def text(self) -> str:
        ab = ",".join(f"{a}:{b}" for a, b in self.ab)
        return (
            f"p={','.join(map(str, self.ps))}\nq={','.join(map(str, self.qs))}\n"
            f"ab={ab}\nnmax={self.nmax}\nrmax={self.rmax}\n"
        )


DEFAULT_GRID = Grid((1, 2, 3), (-2, -1, 1, 2), ((0, 1), (2, "p"), (1, 1), (2, 3)), 10, 6)


@dataclass
class Request:
    """One CLI invocation and what the oracle needs to check its output."""

    argv: list[str]
    command: str
    fmt: str = "json"
    items: int = 0
    params: tuple[int, int, int, int] = (0, 0, 0, 0)  # p, q and resolved seeds a, b
    lo: int = 0
    hi: int = 0
    hybrid: bool = True
    suite: str = "all"
    grid: Grid | None = None
    grid_file: Path | None = None
    cases: int = 0


def degenerate(p: int, q: int) -> bool:
    """p²+4q = 0: the CLI rejects these with exit code 2."""
    return p * p + 4 * q == 0


def grid_cases(grid: Grid, suite: str) -> int:
    """Case count of a grid, from the suite definitions, not from the program."""
    param_sets = set()
    pq = set()
    for p in grid.ps:
        for q in grid.qs:
            if degenerate(p, q):
                continue
            pq.add((p, q))
            for a, b in grid.ab:
                param_sets.add((p, q, p if a == "p" else a, p if b == "p" else b))
    n, r = grid.nmax, grid.rmax
    per_params = {
        "catalan": sum(min(m, r) + 1 for m in range(n + 1)) + EXTENDED * (min(r, 3) + 1),
        "cassini": n + EXTENDED,
        "docagne": (r + 1) * (n + 1 + EXTENDED),
        "adjacent-commutator": r + 1,
        "horadam-commutator": (n + 1) * (n + 2) // 2,
        "diag-commutator": n + 1,
    }
    per_pq = {"lucas-fib-exchange": (n + 1) * (r + 1) ** 2, "square-difference": n + 1}
    names = SUITES if suite == "all" else (suite,)
    return sum(
        per_params.get(name, 0) * len(param_sets) + per_pq.get(name, 0) * len(pq) for name in names
    )


def resolve(kind: str, p: int, a: int, b: int) -> tuple[int, int]:
    return {"fib": (0, 1), "lucas": (2, p), "horadam": (a, b)}[kind]


def _seeds(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if (a, b) != (0, 0):
            return a, b


def _signed_p(rng: random.Random, abs_p: int, q: int) -> int:
    """p = ±abs_p.  The sign only alternates the signs of the values, so the
    size of the numbers, and the work, do not depend on it; the sign of q
    does (q < 0 can give complex roots), so templates fix q."""
    if degenerate(abs_p, q):
        raise ValueError(f"template slot p=±{abs_p}, q={q} has p²+4q = 0")
    return rng.choice((abs_p, -abs_p))


# --- verify-grid ---------------------------------------------------------

# (suite, format, audit, number of p values, nmax, rmax) for each seeded
# grid request; every suite appears, most requests verify one suite.
VERIFY_SLOTS = (
    ("all", "json", False, 1, 9, 5),
    ("all", "csv", False, 1, 8, 4),
    ("all", "json", True, 1, 8, 4),
    ("catalan", "json", False, 1, 12, 6),
    ("catalan", "csv", False, 1, 10, 8),
    ("catalan", "json", True, 1, 9, 5),
    ("catalan", "json", False, 2, 8, 4),
    ("cassini", "json", False, 2, 14, 4),
    ("cassini", "json", True, 1, 12, 6),
    ("cassini", "csv", False, 2, 10, 5),
    ("docagne", "json", False, 1, 12, 7),
    ("docagne", "csv", False, 1, 10, 5),
    ("docagne", "json", True, 1, 9, 4),
    ("docagne", "json", False, 2, 8, 6),
    ("adjacent-commutator", "json", False, 2, 14, 8),
    ("adjacent-commutator", "json", True, 2, 12, 6),
    ("adjacent-commutator", "csv", False, 2, 10, 7),
    ("lucas-fib-exchange", "json", False, 1, 10, 6),
    ("lucas-fib-exchange", "csv", False, 1, 9, 5),
    ("lucas-fib-exchange", "json", True, 1, 8, 4),
    ("lucas-fib-exchange", "json", False, 2, 8, 5),
    ("square-difference", "json", False, 2, 14, 4),
    ("square-difference", "json", True, 2, 12, 6),
    ("square-difference", "csv", False, 2, 13, 5),
    ("horadam-commutator", "json", False, 1, 12, 5),
    ("horadam-commutator", "json", True, 1, 10, 4),
    ("horadam-commutator", "csv", False, 2, 9, 6),
    ("diag-commutator", "json", False, 2, 13, 6),
    ("diag-commutator", "csv", False, 2, 11, 8),
)
GRID_P = range(-3, 5)
GRID_Q = (-3, -2, -1, 1, 2, 3)


def _grid(rng: random.Random, n_p: int, nmax: int, rmax: int) -> Grid:
    """n_p values of p × two values of q × (fib, lucas, one random seed pair).

    Pairs with p²+4q = 0 are skipped by drawing again, and the random pair
    never coincides with the fib or lucas seeds, so each grid has exactly
    6·n_p parameter sets and 2·n_p (p, q) pairs whatever the seed.
    """
    while True:
        ps = tuple(sorted(rng.sample(GRID_P, n_p)))
        qs = tuple(sorted(rng.sample(GRID_Q, 2)))
        if not any(degenerate(p, q) for p in ps for q in qs):
            break
    while True:
        a, b = _seeds(rng)
        if a != 2 and (a, b) != (0, 1):
            return Grid(ps, qs, ((0, 1), (2, "p"), (a, b)), nmax, rmax)


def verify_grid(rng: random.Random, grid_dir: Path) -> list[Request]:
    reqs = [Request(["verify"], "verify", cases=grid_cases(DEFAULT_GRID, "all"))]
    for k, (suite, fmt, audit, n_p, nmax, rmax) in enumerate(VERIFY_SLOTS):
        grid = _grid(rng, n_p, nmax, rmax)
        path = grid_dir / f"grid{k:02d}.txt"
        argv = ["verify", "--suite", suite, "--grid", str(path), "--format", fmt]
        reqs.append(
            Request(
                argv + (["--audit"] if audit else []),
                "verify",
                fmt=fmt,
                suite=suite,
                grid=grid,
                grid_file=path,
                cases=grid_cases(grid, suite),
            )
        )
    for req in reqs:
        req.items = req.cases
    return reqs


# --- binet-long ----------------------------------------------------------

# (|p|, q, first index, last index, format) per request.  Most windows
# that start below zero have |q| >= 2, so their values are true fractions.
BINET_SLOTS = (
    (1, 1, 0, 180, "json"),
    (1, 1, -40, 120, "csv"),
    (1, -1, 0, 240, "json"),
    (1, 2, -70, 70, "json"),
    (1, 2, 0, 160, "json"),
    (1, -2, -60, 80, "csv"),
    (1, 3, -60, 90, "json"),
    (1, -3, 0, 140, "json"),
    (2, 1, 0, 160, "json"),
    (2, 1, -30, 130, "csv"),
    (2, 2, -60, 90, "json"),
    (2, -2, 0, 180, "json"),
    (2, 3, 0, 140, "csv"),
    (2, -3, -60, 60, "json"),
    (3, 1, 0, 150, "json"),
    (3, -1, -50, 110, "json"),
    (3, 2, -50, 90, "json"),
    (3, -2, 0, 140, "csv"),
    (3, 3, 0, 130, "json"),
    (3, -3, -60, 70, "json"),
    (4, 1, 0, 140, "json"),
    (4, -1, -40, 100, "csv"),
    (4, 2, -50, 80, "json"),
    (4, -2, 0, 160, "json"),
    (4, 3, 0, 120, "json"),
    (4, -3, -60, 60, "csv"),
    (1, 2, -100, 50, "json"),
    (2, 3, -80, 50, "json"),
    (1, 1, -80, 80, "json"),
    (3, 1, 0, 210, "json"),
)


def binet_long(rng: random.Random, grid_dir: Path) -> list[Request]:
    reqs = []
    for abs_p, q, lo, hi, fmt in BINET_SLOTS:
        p = _signed_p(rng, abs_p, q)
        kind = rng.choice(("fib", "lucas", "horadam"))
        a, b = _seeds(rng)
        argv = ["binet", "--p", str(p), "--q", str(q), "--a", str(a), "--b", str(b),
                "--seq", kind, "--from", str(lo), "--to", str(hi), "--format", fmt]
        reqs.append(
            Request(argv, "binet", fmt=fmt, items=hi - lo + 1,
                    params=(p, q, *resolve(kind, p, a, b)), lo=lo, hi=hi)
        )
    return reqs


# --- seq-stream ----------------------------------------------------------

# (command, |p|, q, first index, last index, kind, format) per request;
# for expand the window is the series index range 0..terms.
STREAM_SLOTS = (
    ("seq", 1, 1, 0, 5000, "scalar", "json"),
    ("seq", 1, 1, 0, 2000, "hybrid", "json"),
    ("seq", 2, 1, 0, 2500, "scalar", "csv"),
    ("seq", 1, 2, 0, 1800, "hybrid", "csv"),
    ("seq", 2, 3, 0, 1200, "hybrid", "json"),
    ("seq", 3, 1, 0, 2000, "scalar", "json"),
    ("seq", 1, 3, 0, 1500, "hybrid", "json"),
    ("seq", 3, -2, 0, 3000, "scalar", "json"),
    ("seq", 1, -3, 0, 2000, "hybrid", "csv"),
    ("seq", 4, 3, 0, 800, "hybrid", "json"),
    ("seq", 1, 2, -1800, 0, "scalar", "json"),
    ("seq", 2, 3, -1000, 0, "hybrid", "json"),
    ("seq", 3, 2, -1300, 0, "scalar", "csv"),
    ("seq", 1, 3, -900, 0, "hybrid", "csv"),
    ("seq", 2, -2, -1200, 200, "hybrid", "json"),
    ("seq", 1, -3, -1000, 0, "scalar", "json"),
    ("seq", 4, -3, -700, 0, "hybrid", "json"),
    ("seq", 1, 1, -2500, 2500, "scalar", "json"),
    ("seq", 3, 3, -600, 600, "hybrid", "json"),
    ("seq", 2, 1, -1500, 1500, "hybrid", "csv"),
    ("expand", 1, 1, 0, 150, "hybrid", "json"),
    ("expand", 1, 2, 0, 140, "hybrid", "csv"),
    ("expand", 2, 1, 0, 120, "hybrid", "json"),
    ("expand", 2, 3, 0, 110, "hybrid", "json"),
    ("expand", 3, 2, 0, 100, "hybrid", "csv"),
    ("expand", 1, 3, 0, 120, "hybrid", "json"),
    ("expand", 1, -2, 0, 150, "hybrid", "json"),
    ("expand", 3, -1, 0, 130, "hybrid", "json"),
    ("expand", 4, -3, 0, 100, "hybrid", "csv"),
    ("expand", 2, -3, 0, 140, "hybrid", "json"),
)


def seq_stream(rng: random.Random, grid_dir: Path) -> list[Request]:
    reqs = []
    for command, abs_p, q, lo, hi, kind, fmt in STREAM_SLOTS:
        p = _signed_p(rng, abs_p, q)
        a, b = _seeds(rng)
        argv = [command, "--p", str(p), "--q", str(q), "--a", str(a), "--b", str(b)]
        if command == "seq":
            argv += ["--from", str(lo), "--to", str(hi), "--kind", kind]
        else:
            argv += ["--terms", str(hi)]
        reqs.append(
            Request(argv + ["--format", fmt], command, fmt=fmt, items=hi - lo + 1,
                    params=(p, q, a, b), lo=lo, hi=hi, hybrid=kind == "hybrid")
        )
    return reqs


# --- shared requests -----------------------------------------------------

WORKLOADS = {"verify-grid": verify_grid, "binet-long": binet_long, "seq-stream": seq_stream}

SETUP = Request(["table"], "table")
PROBE_GRID = Grid((1,), (2,), ((0, 1),), 3, 2)


def probe(grid_dir: Path) -> list[Request]:
    """One small request per command, run at the end of each traced pass.

    Every layer then has a measured (nonzero) per-layer figure on every
    workload, including the layers the workload itself bypasses.
    """
    path = grid_dir / "probe.txt"
    return [
        Request(["verify", "--grid", str(path)], "verify", grid=PROBE_GRID, grid_file=path,
                cases=grid_cases(PROBE_GRID, "all")),
        Request(["binet", "--p", "1", "--q", "2", "--from", "-3", "--to", "8"], "binet",
                params=(1, 2, 0, 1), lo=-3, hi=8),
        Request(["seq", "--p", "1", "--q", "2", "--from", "-4", "--to", "4"], "seq",
                params=(1, 2, 0, 1), lo=-4, hi=4),
        Request(["expand", "--p", "1", "--q", "1", "--terms", "8"], "expand",
                params=(1, 1, 0, 1), lo=0, hi=8),
    ]


SELF_TEST = Request(["seq", "--p", "1", "--q", "2", "--from", "-6", "--to", "9", "--kind", "scalar"],
                    "seq", params=(1, 2, 0, 1), lo=-6, hi=9, hybrid=False)


def build(name: str, seed: int, grid_dir: Path) -> tuple[list[Request], list[Request]]:
    """The workload's request list and the trace probe; writes every grid file."""
    rng = random.Random(f"{name}:{seed}")
    reqs = WORKLOADS[name](rng, grid_dir)
    extra = probe(grid_dir)
    grid_dir.mkdir(parents=True, exist_ok=True)
    for req in reqs + extra:
        if req.grid_file is not None:
            req.grid_file.write_text(req.grid.text(), encoding="utf-8")
    return reqs, extra
