"""The process entry of ``python -m hlab`` and of the ``hlab`` script.

:func:`run` runs one command through ``cli.main``.  An exception that
escapes ``cli.main`` is a bug: its traceback goes to stderr and the exit
code is 4, a code no other failure uses.

``run`` turns the cyclic garbage collector off before it imports
``hlab.cli``, so neither the compiles nor the arithmetic of a job run a
collection.  hlab's values are acyclic (records, tuples, and dicts of ints
and Fractions), so reference counting frees them, and the process ends at
``os._exit`` below.  Importing this module, or calling ``cli.main``
in-process, leaves the collector as it found it.

Once the report is written, ``run`` flushes stdout and stderr and ends the
process with ``os._exit``: the interpreter's teardown (module cleanup and
the collections of every object the OS frees anyway) is skipped.  hlab
registers no atexit handler and closes every file it opens (``fixture
--out`` writes inside ``with``), so the flush is the one step of that
teardown that matters, and the exit code is the one ``cli.main`` returned.
If the flush fails (stdout on a full disk, say), or a stream is gone,
``run`` returns the code instead, and the interpreter's own shutdown flush
reports the failure as it always has (exit 120).  Only the process entry
exits this way; ``cli.main`` called in-process returns.
"""

import gc
import os
import sys

CRASH = 4


def run() -> int:
    """Run the command of ``sys.argv`` with the cyclic collector off, and
    exit with its code once stdout and stderr are flushed; return the code
    if they cannot be."""
    gc.disable()
    from .cli import main

    try:
        code = main()
    except Exception:
        import traceback

        traceback.print_exc()
        code = CRASH
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, a failed write, a closed stream
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
