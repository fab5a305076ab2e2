"""Run one hybridseq CLI request in this process, traced or profiled.

    python perfbench/tracer.py trace OUT.json ARGV...
    python perfbench/tracer.py profile OUT.pstats ARGV...

``trace`` wraps the public functions of each layer from outside the
package, calls ``hybridseq.cli.main(ARGV)`` and writes per-name call
counts, inclusive time and self time (inclusive minus traced children) to
OUT.json.  ``profile`` runs ``main`` under cProfile and dumps the stats.
Stdout is the CLI's own, byte for byte, so the harness checks it as usual.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


class Tracer:
    """Counts and times calls through wrappers; keeps everything in memory."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self._child = [0.0]  # time in traced callees, one slot per open span
        self._in_verifier = False

    def timed(self, name: str, fn):
        calls, total, self_time, child = self.calls, self.total, self.self_time, self._child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child.pop()
                child[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - inner

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def verifier(self, suite: str, fn):
        """Time a suite's verifier calls, leaving out calls nested in another
        verifier: cassini re-evaluates catalan at r = 1 as part of its own
        check, and that time belongs to cassini."""
        top = self.timed(f"identities.{suite}", fn)

        def wrapper(*args, **kwargs):
            if self._in_verifier:
                return fn(*args, **kwargs)
            self._in_verifier = True
            try:
                return top(*args, **kwargs)
            finally:
                self._in_verifier = False

        return wrapper


def _patch_everywhere(modules, original, wrapper) -> None:
    """Rebind every module-level name bound to ``original``.

    Modules import functions by name (``identities`` does
    ``from .binet import make_context``), so rebinding the defining module
    alone would miss those call sites.
    """
    patched = False
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                patched = True
    if not patched:
        raise LookupError(f"{original!r} is bound nowhere")


def install(tracer: Tracer) -> None:
    import hybridseq
    from hybridseq import binet, cli, exactarith, genfunc, hybrid, identities, sequences

    modules = (hybridseq, binet, cli, exactarith, genfunc, hybrid, identities, sequences)
    functions = {
        "binet.make_context": binet.make_context,
        "binet.binet_horadam": binet.binet_horadam,
        "sequences.hybrid_seq": sequences.hybrid_seq,
        "genfunc.expand": genfunc.expand,
        "genfunc.check_expansion": genfunc.check_expansion,
        "exactarith.format_rational": exactarith.format_rational,
    }
    for name, fn in functions.items():
        _patch_everywhere(modules, fn, tracer.timed(name, fn))
    _patch_everywhere(modules, sequences.horadam, tracer.counted("sequences.horadam", sequences.horadam))
    run_suite = tracer.timed("identities.run_suite", identities.run_suite)

    def counted_run_suite(*args, **kwargs):
        result = run_suite(*args, **kwargs)
        tracer.calls["identities.cases"] += result.cases
        return result

    _patch_everywhere(modules, identities.run_suite, counted_run_suite)
    for suite in identities.SUITES:
        fn = getattr(identities, suite.replace("-", "_"))
        _patch_everywhere(modules, fn, tracer.verifier(suite, fn))

    # Methods are looked up on the class, so one rebinding reaches every caller.
    HybridNumber, QuadExt, SeqCache = hybrid.HybridNumber, exactarith.QuadExt, sequences.SeqCache
    mul = tracer.timed("hybrid.mul", HybridNumber.__mul__)
    calls = tracer.calls

    def classified_mul(self, other):
        kinds = {type(self.s), type(other.s if isinstance(other, HybridNumber) else other)}
        if QuadExt in kinds:
            calls["hybrid.mul_quadext"] += 1
        elif Fraction in kinds:
            calls["hybrid.mul_fraction"] += 1
        else:
            calls["hybrid.mul_int"] += 1
        return mul(self, other)

    HybridNumber.__mul__ = classified_mul
    HybridNumber.to_json_dict = tracer.timed("hybrid.to_json_dict", HybridNumber.to_json_dict)
    QuadExt.__pow__ = tracer.timed("exactarith.quadext_pow", QuadExt.__pow__)
    QuadExt.__init__ = tracer.counted("exactarith.quadext_new", QuadExt.__init__)
    SeqCache.__init__ = tracer.counted("sequences.seqcache_new", SeqCache.__init__)
    SeqCache.value = tracer.timed("sequences.seqcache_value", SeqCache.value)


def _cache_info(identities) -> dict[str, list[int]]:
    """Hits and misses of the suite's memo caches, while they are lru_caches."""
    out = {}
    for key, attr in (("prod", "_prod"), ("hyb", "_hyb")):
        info = getattr(getattr(identities, attr, None), "cache_info", None)
        if info is not None:
            stats = info()
            out[key] = [stats.hits, stats.misses]
    return out


def _call_main(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1


def run(mode: str, out_path: str, argv: list[str]) -> int:
    start = perf_counter()
    from hybridseq import cli, identities

    import_s = perf_counter() - start
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        rc = profiler.runcall(_call_main, cli.main, argv)
        sys.stdout.flush()
        profiler.dump_stats(out_path)
        return rc
    tracer = Tracer()
    install(tracer)
    rc = _call_main(tracer.timed("cli.main", cli.main), argv)
    sys.stdout.flush()
    report = {
        "import_s": import_s,
        "calls": tracer.calls,
        "total": tracer.total,
        "self": tracer.self_time,
        "caches": _cache_info(identities),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("trace", "profile"):
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
