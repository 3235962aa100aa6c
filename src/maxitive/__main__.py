"""``python -m maxitive``: run one command and end the process.

Once the command has returned, its report is complete. The atexit handlers
run and the standard streams are flushed, in the interpreter's own order,
and the process ends with ``os._exit``, skipping the teardown of every
module, which is most of the time a command spends after its work. This
holds because no command starts a thread, and the one file a command
writes (``simulate --csv``) is closed before it returns. A flush that fails
(a block-buffered report to a full device) is reported as ``main`` reports
a failed write, with one ``error:`` line and exit 1, and what is left in
the buffer is dropped; ``SystemExit`` (usage errors, ``-h``) and uncaught
exceptions never reach this point.
"""

import atexit
import os
import sys

from .cli import main

rc = main()
atexit._run_exitfuncs()
try:
    sys.stdout.flush()
    sys.stderr.flush()
except (OSError, ValueError) as exc:
    try:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.flush()
    except (OSError, ValueError):
        pass
    rc = 1
os._exit(rc)
