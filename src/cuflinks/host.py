"""What the host offers this process."""

from __future__ import annotations

import os


def usable_cores() -> int:
    """The cores this process may run on.

    That is its CPU affinity where the platform reports one, so a
    process pinned to one core (``taskset -c 0``) counts one; elsewhere
    it is the machine's count, and at least 1 when that is unknown.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
