import gc

from .cli import main

if __name__ == "__main__":
    gc.disable()  # a run makes no cyclic garbage worth a pass; exit frees it all
    try:
        raise SystemExit(main())
    finally:  # also on argparse's SystemExit: shutdown's full collections skip a frozen heap
        gc.freeze()
