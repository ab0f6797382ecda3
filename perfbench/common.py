"""Shared plumbing for the workloads: statistics and node checks.

Everything here acts on the calling process only. Node state is read
through the public status path (``remote.node_status``), the same way an
operator would read it.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

from cingal import remote
from cingal.errors import CingalError


def open_fds() -> int:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return 0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """Operations attempted and failed, and every wrong output seen."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)  # the first 20 kept

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.wrong += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


class ThreadPeak:
    """Largest live-thread count seen at the workload loop's sample points."""

    def __init__(self):
        self.peak = threading.active_count()

    def sample(self) -> int:
        n = threading.active_count()
        self.peak = max(self.peak, n)
        return n


def wait_machine_counts(addresses, want: list[int],
                        timeout: float = 10.0) -> list[int]:
    """Poll node status until each node lists ``want`` machines.

    Tool machines finish a moment after their report is read, so counts
    settle shortly after an operation returns. Returns the last counts
    seen, which differ from ``want`` only on timeout.
    """
    deadline = time.monotonic() + timeout
    while True:
        got = [int(remote.node_status(a).get("machines", "-1"))
               for a in addresses]
        if got == want or time.monotonic() > deadline:
            return got
        time.sleep(0.002)


def terminate_listed_machines(addresses) -> None:
    """Send TERMINATE to every machine the nodes still list."""
    for address in addresses:
        try:
            status = remote.node_status(address)
        except CingalError:
            continue
        for m in status.findall("MACHINE"):
            c = m.find("CONNECTOR")
            if c is None:
                continue
            try:
                remote.control_request(c.get("host", ""),
                                       int(c.get("machinePort", "0")),
                                       "TERMINATE")
            except CingalError:
                pass
