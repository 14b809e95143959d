"""Peak resident memory of the benchmark process and all its descendants.

Lane and service workers start through ``forkserver``: they are
children of the forkserver process, not of the benchmark, so
``getrusage(RUSAGE_CHILDREN)`` never sees them.  :class:`TreeRss`
walks ``/proc`` on a background thread instead and reads each live
descendant's high-water mark (``VmHWM``) before it exits.  The
reported peak is the largest sum, over the processes alive at one
sample, of their high-water marks, so a lane pool restarted by every
run counts once, not once per run.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional


def _read_ppid(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return None  # exited between listing and reading
    # Field 4 (ppid) follows the parenthesised command name, which may
    # itself contain spaces or parentheses.
    return int(stat[stat.rfind(b")") + 2:].split()[1])


def parent_map(known: Optional[Dict[int, int]] = None) -> Dict[int, int]:
    """Parent pid of every live process.

    ``known`` is an earlier result: processes still listed keep their
    recorded parent, so a sampler re-reads only new processes.
    """
    known = known or {}
    parents: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            pid = int(name)
            ppid = known.get(pid)
            if ppid is None:
                ppid = _read_ppid(pid)
            if ppid is not None:
                parents[pid] = ppid
    return parents


def _hwm_kib(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", "rb") as fh:
            status = fh.read()
    except OSError:
        return None
    start = status.find(b"VmHWM:")
    if start < 0:
        return None  # a zombie, or a kernel thread
    return int(status[start + 6:status.find(b"kB", start)])


def descendants(root: int, parents: Dict[int, int]) -> List[int]:
    """``root`` and every process below it in ``parents``, at any depth."""
    children: Dict[int, List[int]] = {}
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    found = []
    pending = [root]
    while pending:
        pid = pending.pop()
        found.append(pid)
        pending.extend(children.get(pid, ()))
    return found


def tree_hwm_kib(root: int, parents: Dict[int, int]) -> int:
    """Summed ``VmHWM`` of ``root`` and its descendants, in KiB."""
    return sum(_hwm_kib(pid) or 0 for pid in descendants(root, parents))


class TreeRss:
    """Samples :func:`tree_hwm_kib` of this process until stopped.

    Use as a context manager around the measured phase; read
    :attr:`peak_mb` afterwards.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peak_kib = 0
        self._parents: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-rss", daemon=True
        )

    def _sample(self) -> None:
        self._parents = parent_map(self._parents)
        self.peak_kib = max(self.peak_kib,
                            tree_hwm_kib(os.getpid(), self._parents))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "TreeRss":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kib / 1024.0
