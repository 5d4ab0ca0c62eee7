"""The cores a pricing call may use, and the one worker thread the pricers share.

Both the quantization step loop and the Monte Carlo split their work in
two when the process may run on two or more cores: the calling thread
does one share and this worker the other.  The library thus runs at most
two threads, whichever pricer is called.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor


def _cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _worker() -> ThreadPoolExecutor:
    """The one thread that runs a pricing call's second share; made on first use."""
    return ThreadPoolExecutor(1, thread_name_prefix="fqbarrier-worker")


# a forked child has no worker thread, only the parent's pool object
if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_worker.cache_clear)
