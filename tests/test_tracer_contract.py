"""The per-layer tracer in perfbench/ must keep working on this program.

``perfbench/tracer.py`` wraps the verifier's suite functions, the memo
caches and the hybrid product by name.  If a refactor renames or replaces
one of them, a traced benchmark run loses its per-layer metrics; these
tests run the tracer on one small request per command (the shapes of the
benchmark's probe) and fail first.  Nothing under perfbench/ is changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hybridseq import SUITES, identities

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

PROBES = {
    "verify": ("verify", "--grid", "{grid}"),
    "binet": ("binet", "--p", "1", "--q", "2", "--from", "-3", "--to", "8"),
    "seq": ("seq", "--p", "1", "--q", "2", "--from", "-4", "--to", "4"),
    "expand": ("expand", "--p", "1", "--q", "1", "--terms", "8"),
}


PROBE_GRID = "p=1\nq=2\nab=0:1\nnmax=3\nrmax=2\n"


def _trace(tmp_path: Path, argv: tuple[str, ...]) -> dict:
    grid = tmp_path / "probe.txt"
    grid.write_text(PROBE_GRID)
    out = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(TRACER), "trace", str(out), *(a.format(grid=grid) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(PROBES))
def test_traced_request_succeeds(tmp_path, command):
    report = _trace(tmp_path, PROBES[command])
    assert report["calls"]["cli.main"] == 1


def test_verify_trace_has_every_layer(tmp_path):
    report = _trace(tmp_path, PROBES["verify"])
    for cache in ("prod", "hyb"):
        hits, misses = report["caches"][cache]
        assert hits + misses > 0, cache
    assert report["calls"]["identities.cases"] > 0
    assert report["calls"]["hybrid.mul"] > 0
    assert {f"identities.{suite}" for suite in SUITES} <= set(report["total"])
    # run_suite reaches each verifier through the name the tracer rebinds
    probe_grid = identities.parse_grid_text(PROBE_GRID)
    for suite in SUITES:
        cases = identities.case_count(probe_grid, suite)
        assert report["calls"][f"identities.{suite}"] == cases, suite
