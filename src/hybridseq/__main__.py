"""The process around ``cli.main``, one for every entry point: ``python -m
hybridseq``, ``python -m hybridseq.cli`` and the ``hybridseq`` script."""

import gc
import os
import sys


def run() -> None:
    """Run ``cli.main`` with the cyclic collector off, then flush stdout and
    stderr and end the process at once: the output is all written, so the
    interpreter's teardown (atexit handlers, module clean-up, the shutdown
    collections) would only free memory the exit frees anyway.  A reader of
    stdout that is gone ends the run with exit 120 and nothing on stderr,
    whether ``main`` or the final flush finds it.  If another flush fails,
    the process exits the normal way, which reports it as before."""
    gc.disable()  # a run makes no cyclic garbage worth a pass
    from .cli import main  # imported with the collector already off

    try:
        code = main()
    except SystemExit as exc:  # argparse's help and errors
        code = exc.code
    except BrokenPipeError:  # stdout's reader is gone
        code = 120
    if type(code) is int:
        try:
            try:
                sys.stdout.flush()
            except BrokenPipeError:  # the reader left before the last block: as above
                code = 120
            sys.stderr.flush()
        except (AttributeError, OSError, ValueError):  # no stream, a write error, a closed file
            pass
        else:
            os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
