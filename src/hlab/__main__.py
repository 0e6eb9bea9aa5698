"""The process entry of ``python -m hlab`` and of the ``hlab`` script.

:func:`run` runs one command through ``cli.main`` and returns its exit
code.  An exception that escapes ``cli.main`` is a bug: its traceback goes
to stderr and the process exits 4, a code no other failure uses.

Once the report is written, ``run`` freezes the heap (``gc.freeze``): every
tracked object moves to the permanent generation, so the collections of
interpreter shutdown skip the objects the OS frees anyway.  Atexit
handlers, the flush of stdio and the exit code are unchanged.  Only the
process entry freezes; ``cli.main`` called in-process keeps normal
collection.
"""

import gc
import sys

from .cli import main

CRASH = 4


def run() -> int:
    """Run the command of ``sys.argv``, freeze the heap, return the exit code."""
    try:
        code = main()
    except Exception:
        import traceback

        traceback.print_exc()
        code = CRASH
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
