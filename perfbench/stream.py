"""Workload ``stream``: messages through one wired named channel.

Two loopback nodes. One ``demo.Source`` and one ``demo.Sink`` are fired
directly with ``remote.fire``; both fire connections stay open as the
components' default channels. ``Engine.rewire`` wires the pair once, on a
``DeploymentRecord`` that holds the two connectors. The timed loop then
pushes messages in at the source and reads them out at the sink, one in
flight, in three phases of equal length: 64 B, 4 KiB and 64 KiB.

A message travels client -> node pump -> Source -> named-channel TCP
link -> pump -> Sink -> node pump -> client, so this workload runs the
channel framing, queues, waits and pump threads; the engine, the gate
and the security layer run only during set-up.

Every message is the seed-derived body of its pool slot, headed by its
sequence number; the reader checks each arrival against the pool.
"""

from __future__ import annotations

import random
import sys
import time

from cingal import remote
from cingal.engine import (
    STATE_RUNNING,
    ConnectionRef,
    DeploymentRecord,
    DeploymentState,
)
from cingal.errors import CingalError
from cingal.harness import harness_spawn

from common import Outcome, ThreadPeak, median, open_fds

# (label, message size, pool size); the pool is cycled, so sequence
# numbers repeat only after that many messages.
PHASES = (("msg64", 64, 4096), ("msg4k", 4096, 512), ("msg64k", 65536, 64))
WARMUP_MESSAGES = 200
READ_TIMEOUT = 10.0


class Stream:
    # Left free to use both CPUs: on one CPU this workload's one-message
    # hand-offs were faster but noisier (see README.md).
    ONE_CPU = False

    def __init__(self, seed: int, work_dir, outcome: Outcome):
        self.seed = seed
        self.work_dir = work_dir
        self.out = outcome
        self.tracer = None
        self.topo = None
        self.handles = []
        self.peak = ThreadPeak()

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.pools = {
            label: [seq.to_bytes(8, "big") + rng.randbytes(size - 8)
                    for seq in range(count)]
            for label, size, count in PHASES}
        self.topo = harness_spawn(2, base_dir=self.work_dir)
        src_path = self.topo.write_component("source", "demo.Source",
                                             channel="Out")
        sink_path = self.topo.write_component("sink", "demo.Sink",
                                              channel="In")
        a, b = (n.address for n in self.topo.nodes)
        threads0 = self.peak.sample()
        self.src = remote.fire(a, src_path.read_bytes())
        self.handles.append(self.src)
        self.sink = remote.fire(b, sink_path.read_bytes())
        self.handles.append(self.sink)
        self.threads_per_machine = (self.peak.sample() - threads0) / 2
        record = DeploymentRecord("bench-stream", {"A": a, "B": b}, {
            "source": DeploymentState("source", "Source", str(src_path), "A",
                                      STATE_RUNNING,
                                      connector=self.src.connector),
            "sink": DeploymentState("sink", "Sink", str(sink_path), "B",
                                    STATE_RUNNING,
                                    connector=self.sink.connector),
        }, {})
        self.topo.engine().rewire(
            record, [ConnectionRef("source", "Out", "sink", "In")])
        self.out.check(record.deployment_state("source") == "wired"
                       and record.deployment_state("sink") == "wired",
                       "rewire left the pair unwired")
        self.seq = {label: 0 for label, _, _ in PHASES}
        for label, _, _ in PHASES:
            self._phase(label, [], count=WARMUP_MESSAGES)

    def close(self) -> None:
        for h in self.handles:
            h.close()
        if self.topo is not None:
            self.topo.stop()

    def measure(self, seconds: float, tracer=None) -> dict:
        self.tracer = tracer
        part = {"ops": 0, "threads_per_machine": self.threads_per_machine}
        threads0, fds0 = self.peak.sample(), open_fds()
        for label, _, _ in PHASES:
            latencies: list[float] = []
            self._phase(label, latencies, deadline=time.perf_counter()
                        + seconds / len(PHASES))
            part[label] = latencies
            part["ops"] += len(latencies)
        part.update(threads_left=self.peak.sample() - threads0,
                    fds_left=open_fds() - fds0)
        self.tracer = None
        return part

    def _phase(self, label: str, latencies: list, count: int = 0,
               deadline: float | None = None) -> None:
        """Send pool messages one at a time: ``count`` of them, or at least
        one and then more until ``deadline``."""
        if self.tracer is not None:
            self.tracer.window = label
        pool = self.pools[label]
        n = 0
        while n < count if deadline is None else (
                n == 0 or time.perf_counter() < deadline):
            seq = self.seq[label]
            self.seq[label] = seq + 1
            msg = pool[seq % len(pool)]
            self.out.attempted += 1
            n += 1
            t0 = time.perf_counter()
            try:
                self.src.write(msg)
                got = self.sink.read(timeout=READ_TIMEOUT)
            except CingalError as exc:
                self.out.failed += 1
                print(f"stream {label} message {seq}: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                return  # the link is gone; later messages would all fail
            latencies.append(time.perf_counter() - t0)
            if got != msg:
                self.out.check(False, f"{label} message {seq} arrived as "
                               f"seq {int.from_bytes(got[:8], 'big')}, "
                               f"{len(got)} bytes")

    @staticmethod
    def end_to_end(part: dict) -> dict:
        return {
            "op1_ms": median(part["msg64"]) * 1e3,
            "op2_ms": median(part["msg4k"]) * 1e3,
            "op3_ms": median(part["msg64k"]) * 1e3,
        }
