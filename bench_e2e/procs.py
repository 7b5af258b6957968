"""CPU and memory of the processes a workload involves, read from /proc.

The benchmark process reads its own figures through ``resource``; the
service's server and its pool workers are other processes, so their CPU
seconds and peak RSS come from ``/proc/<pid>/stat`` and ``status``.
"""

import os
import resource
import signal
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid):
    with open("/proc/%d/stat" % pid, "rb") as fh:
        text = fh.read().decode("ascii", "replace")
    # the command name may hold spaces; fields resume after its ")"
    return text[text.rindex(")") + 2:].split()


def descendants(pid):
    """Live descendant pids of ``pid`` (children, grandchildren, ...)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except (OSError, ValueError):
            continue
        if fields[0] != "Z":
            parents[int(entry)] = int(fields[1])
    found, frontier = [], {pid}
    while frontier:
        frontier = {child for child, parent in parents.items()
                    if parent in frontier}
        found.extend(sorted(frontier))
    return found


def cpu_s(pid):
    """User + system CPU seconds of one live process (0 if gone)."""
    try:
        fields = _stat_fields(pid)
    except (OSError, ValueError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid):
    """Peak resident set (VmHWM) of one live process in MB (0 if gone)."""
    try:
        with open("/proc/%d/status" % pid, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CpuMeter:
    """CPU seconds of a process tree between ``start`` and ``stop``.

    ``root`` is the tree's top pid.  Descendants that appear after
    ``start`` count from zero.
    """

    def __init__(self, root):
        self.root = root
        self._base = {}

    def _pids(self):
        return descendants(self.root) + [self.root]

    def _sample(self):
        return {pid: cpu_s(pid) for pid in self._pids()}

    def start(self):
        self._base = self._sample()

    def stop(self):
        now = self._sample()
        return sum(max(0.0, cpu - self._base.get(pid, 0.0))
                   for pid, cpu in now.items())

    def peak_rss_mb(self):
        return max(peak_rss_mb(pid) for pid in self._pids())


def wait_gone(pids, timeout_s):
    """Wait until every pid has exited; SIGKILL stragglers at the end."""
    deadline = time.monotonic() + timeout_s
    pending = [pid for pid in pids if _alive(pid)]
    while pending and time.monotonic() < deadline:
        time.sleep(0.02)
        pending = [pid for pid in pending if _alive(pid)]
    for pid in pending:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while pending and time.monotonic() < deadline:
        time.sleep(0.02)
        pending = [pid for pid in pending if _alive(pid)]
    return not pending


def _alive(pid):
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, ValueError):
        return False
