"""When this process may fork children, and how a forked child dies with it.

Two kinds of forked children share these rules: the worker pool of
`pipeline` and the batch producer of `trainer`. Neither forks while
another Python thread is alive, since forking a threaded process can
deadlock in the child, nor from inside a multiprocessing worker, and on
Linux each is killed when the process that forked it dies.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import threading

# <linux/prctl.h>: deliver a signal to this process when its parent dies
_PR_SET_PDEATHSIG = 1


def pool_workers(count: int) -> int:
    """Worker processes for `count` independent tasks; below 2, run them here.

    One per CPU in this process's affinity mask, at most `count`. Serial
    where the mask cannot be read, inside a multiprocessing worker, and
    while other Python threads are alive, since forking a threaded process
    can deadlock in the child.
    """
    if (
        not hasattr(os, "sched_getaffinity")
        or multiprocessing.parent_process() is not None
        or threading.active_count() > 1
    ):
        return 1
    return min(count, len(os.sched_getaffinity(0)))


def die_with_parent(parent: int) -> None:
    """Have this forked child killed when process `parent` dies (Linux only).

    A child outlives a killed parent otherwise, waiting for work that will
    never come and holding the parent's stdout open. Exits at once if the
    parent died before this call.
    """
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
