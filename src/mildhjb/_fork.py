"""Work on a second core: forked workers that report through a file.

A worker runs ``task(out)`` and leaves through ``os._exit``: 0 if it
returned, 1 if it raised.  A fork that raises (``EAGAIN`` at the process
limit, ``ENOMEM``) gives a worker that failed, so its caller does the task
itself.  ``out`` is an unlinked temporary file opened before the fork, so
the worker never blocks on its reader, as on a full pipe.  Its CPU time
and memory show only in ``RUSAGE_CHILDREN``.
"""

import contextlib
import os
import signal
import tempfile
import threading


def cores() -> int:
    """Usable cores a worker may be forked onto: 1 without ``os.fork`` or
    while another Python thread runs (a lock it held would stay held)."""
    if threading.active_count() > 1 or not (
            hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class Worker:
    def __init__(self, task, out):
        self._out, self._status = out, None
        try:
            self._pid = os.fork()
        except OSError:
            self._status = 1  # never forked: join() gives None
            return
        if self._pid == 0:  # the worker leaves through os._exit, never returns
            try:
                task(out)
                out.flush()
                os._exit(0)
            finally:
                os._exit(1)

    def join(self):
        """Wait: the worker's file, rewound, if it exited 0, else None."""
        if self._status is None:
            self._status = os.waitpid(self._pid, 0)[1]
        if self._status != 0:
            return None
        self._out.seek(0)
        return self._out

    def _kill(self):
        if self._status is None:
            os.kill(self._pid, signal.SIGKILL)
            self.join()


@contextlib.contextmanager
def forked(*tasks):
    """One ``Worker`` per task; when the block ends, returned or raised, a
    worker not yet joined is killed, and every worker is reaped."""
    with contextlib.ExitStack() as ends:
        workers = []
        for task in tasks:
            out = ends.enter_context(tempfile.TemporaryFile())
            workers.append(Worker(task, out))
            ends.callback(workers[-1]._kill)
        yield workers
