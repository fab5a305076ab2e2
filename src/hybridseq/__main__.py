import gc

from .cli import main

if __name__ == "__main__":
    try:
        raise SystemExit(main())
    finally:  # also on argparse's SystemExit
        # The process ends here: freezing the heap lets shutdown's full
        # collections skip every live object, which exit frees anyway.
        gc.freeze()
