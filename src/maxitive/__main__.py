"""``python -m maxitive``: run one command and end the process.

Once the command has returned, its report is complete. The atexit handlers
run and the standard streams are flushed, in the interpreter's own order,
and the process ends with ``os._exit``, skipping the teardown of every
module, which is most of the time a command spends after its work. This
holds because no command starts a thread, and the one file a command
writes (``simulate --csv``) is closed before it returns. A flush that fails
takes the ordinary exit, which reports the failure as it always has;
``SystemExit`` (usage errors, ``-h``) and uncaught exceptions never reach
this point.
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
except (OSError, ValueError):
    sys.exit(rc)
os._exit(rc)
