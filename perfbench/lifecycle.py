"""Workload ``lifecycle``: deploy, rewire, move and tear down a DDD.

Three loopback nodes hold one DDD of 8 ``demo.Source`` -> ``demo.Sink``
pairs. Source ``S<i>`` sits on host ``i mod 3`` and sink ``K<i>`` on
host ``(i+1) mod 3``, so the pairs span three host pairs. One cycle:

1. ``Engine.deploy`` (timed), then probe every pair;
2. ``Engine.rewire`` to the rotation ``S<i> -> K<i+1>`` (timed), probe
   every pair again;
3. ``Engine.move_component`` of one sink to the next host (timed), probe
   the moved sink;
4. ``TERMINATE`` to every component, then wait until every node lists
   0 machines.

The seed chooses every probe payload and which sink moves in each cycle.
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading
import time

from cingal import remote
from cingal.engine import (
    DDD,
    BundleRef,
    ConnectionRef,
    DeploymentRef,
    HostRef,
)
from cingal.errors import CingalError
from cingal.harness import harness_spawn

from common import (
    Outcome,
    ThreadPeak,
    median,
    open_fds,
    terminate_listed_machines,
    wait_machine_counts,
)

PAIRS = 8
HOSTS = 3
OPS_PER_CYCLE = 3  # deploy, rewire, move
# Each cycle leaves about 36 threads blocked in channel pumps (the
# ConnectionManager.disconnect FOUND line in CHANGES.md), and a standing
# deployment with its tool machines briefly needs about 130 more. So a
# run does one timed cycle per SECONDS_PER_CYCLE of run length, at most
# MAX_CYCLES, which keeps the process under about 600 live threads; a
# cycle that could pass THREAD_CEILING is not started.
SECONDS_PER_CYCLE = 2.0
MAX_CYCLES = 10
THREAD_CEILING = 600
THREADS_PER_CYCLE_BOUND = 150


class Lifecycle:
    # Run the whole process on one CPU (see README.md, "Sources of
    # spread"): with time taken by the hypervisor, hand-offs between
    # threads on two vCPUs made this workload's figures swing by 2-3x.
    ONE_CPU = True

    def __init__(self, seed: int, work_dir, outcome: Outcome):
        self.seed = seed
        self.work_dir = work_dir
        self.out = outcome
        self.tracer = None
        self.topo = None
        self.peak = ThreadPeak()
        self.cycle_index = 0

    # --- set-up -------------------------------------------------------------

    def setup(self) -> None:
        self.topo = harness_spawn(HOSTS, base_dir=self.work_dir)
        self.addresses = [n.address for n in self.topo.nodes]
        paths = {
            "Source": self.topo.write_component("source", "demo.Source",
                                                channel="Out"),
            "Sink": self.topo.write_component("sink", "demo.Sink",
                                              channel="In"),
        }
        self.file_md5 = {b: hashlib.md5(p.read_bytes()).hexdigest()
                         for b, p in paths.items()}
        hosts = tuple(HostRef(f"H{h}", a)
                      for h, a in enumerate(self.addresses))
        deployments = tuple(
            [DeploymentRef(f"S{i}", "Source", f"H{i % HOSTS}")
             for i in range(PAIRS)]
            + [DeploymentRef(f"K{i}", "Sink", f"H{(i + 1) % HOSTS}")
               for i in range(PAIRS)])
        self.ddd = DDD(
            "bench-lifecycle",
            tuple(BundleRef(b, str(p)) for b, p in paths.items()),
            hosts, deployments,
            tuple(ConnectionRef(f"S{i}", "Out", f"K{i}", "In")
                  for i in range(PAIRS)))
        self.rotated = [ConnectionRef(f"S{i}", "Out", f"K{(i + 1) % PAIRS}",
                                      "In") for i in range(PAIRS)]
        self.engine = self.topo.engine()

        rng = random.Random(self.seed)
        self.inputs = []
        for c in range(MAX_CYCLES + 1):  # the warm-up cycle, then timed ones
            payloads = {stage: [f"{stage}:{c}:{i}:".encode()
                                + rng.randbytes(24) for i in range(PAIRS)]
                        for stage in ("deploy", "rewire")}
            payloads["move"] = f"move:{c}:".encode() + rng.randbytes(24)
            self.inputs.append((payloads, rng.randrange(PAIRS)))

        # warm-up: one whole cycle, checked like the timed ones
        self._cycle(self._new_part())

    def close(self) -> None:
        if self.topo is not None:
            self.topo.stop()

    # --- the timed loop ------------------------------------------------------

    @staticmethod
    def _new_part() -> dict:
        return {"deploy": [], "rewire": [], "move": [], "teardown": [],
                "standing_threads": [], "phases": []}

    def measure(self, seconds: float, tracer=None) -> dict:
        self.tracer = tracer
        part = self._new_part()
        threads0, fds0 = threading.active_count(), open_fds()
        planned = max(1, round(seconds / SECONDS_PER_CYCLE))
        cycles = 0
        while (cycles < planned and self.cycle_index <= MAX_CYCLES
               and threading.active_count() + THREADS_PER_CYCLE_BOUND
               <= THREAD_CEILING):
            self._cycle(part)
            cycles += 1
        part.update(cycles=cycles, ops=cycles,
                    threads_left=threading.active_count() - threads0,
                    fds_left=open_fds() - fds0,
                    threads_per_machine=median(part["standing_threads"]))
        self.tracer = None
        return part

    def _mark(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.window = label

    def _timed(self, label: str, part: dict, call):
        self._mark(label)
        hook = None
        if self.tracer is not None:
            marks = [(label, "start", time.perf_counter())]
            part["phases"].append(marks)

            def hook(phase, _record):
                marks.append((label, phase, time.perf_counter()))
        t0 = time.perf_counter()
        result = call(hook)
        part[label].append(time.perf_counter() - t0)
        self._mark("check")
        return result

    def _cycle(self, part: dict) -> None:
        payloads, moved = self.inputs[self.cycle_index]
        self.cycle_index += 1
        self.out.attempted += OPS_PER_CYCLE
        self.threads_at_start = threading.active_count()
        done = 0  # operations that returned and whose probes came back
        try:
            record = self._timed(
                "deploy", part,
                lambda hook: self.engine.deploy(self.ddd, phase_hook=hook))
            placement = {d.name: d.target for d in self.ddd.deployments}
            self._check_standing(record, placement, part)
            self._check_keys(record)
            self._probe(record, [(f"S{i}", f"K{i}", payloads["deploy"][i])
                                 for i in range(PAIRS)])
            done = 1

            self._timed("rewire", part,
                        lambda hook: self.engine.rewire(record, self.rotated,
                                                        phase_hook=hook))
            self._probe(record, [(f"S{i}", f"K{(i + 1) % PAIRS}",
                                  payloads["rewire"][i])
                                 for i in range(PAIRS)])
            done = 2

            sink = f"K{moved}"
            new_host = f"H{(int(placement[sink][1:]) + 1) % HOSTS}"
            self._timed("move", part,
                        lambda hook: self.engine.move_component(
                            record, sink, new_host, phase_hook=hook))
            placement[sink] = new_host
            self._check_standing(record, placement, None)
            self._check_keys(record)
            self._probe(record, [(f"S{(moved - 1) % PAIRS}", sink,
                                  payloads["move"])])
            done = 3
            self._teardown(record, part)
        except CingalError as exc:
            # the operations the cycle had not finished, or its last one
            # when the teardown after it failed
            self.out.failed += max(1, OPS_PER_CYCLE - done)
            self._mark("recover")
            print(f"lifecycle cycle {self.cycle_index}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            terminate_listed_machines(self.addresses)
            got = wait_machine_counts(self.addresses, [0] * HOSTS)
            self.out.check(got == [0] * HOSTS,
                           f"machines left after a failed cycle: {got}")
        self.peak.sample()

    # --- checks --------------------------------------------------------------

    def _check_standing(self, record, placement: dict, part) -> None:
        want = [sum(1 for h in placement.values() if h == f"H{i}")
                for i in range(HOSTS)]
        got = wait_machine_counts(self.addresses, want)
        threads = self.peak.sample()
        self.out.check(got == want,
                       f"cycle {self.cycle_index}: machines {got}, "
                       f"placement wants {want}")
        self.out.check(
            {n: d.host for n, d in record.deployments.items()} == placement,
            f"cycle {self.cycle_index}: record hosts differ from placement")
        if part is not None:
            part["standing_threads"].append(
                (threads - self.threads_at_start) / sum(want))

    def _check_keys(self, record) -> None:
        for name, dep in record.deployments.items():
            key = dep.store_key.hex if dep.store_key is not None else None
            self.out.check(key == self.file_md5[dep.bundle],
                           f"{name}: store key {key} is not the md5 "
                           f"of {dep.bundle}'s file")

    def _probe(self, record, routes) -> None:
        self._mark("probe")
        for source, sink, payload in routes:
            got = self.topo.probe(record, source, sink, payload)
            self.out.check(got == payload,
                           f"probe {source}->{sink} returned {got[:40]!r}")
        self._mark("check")

    def _teardown(self, record, part: dict) -> None:
        self._mark("teardown")
        t0 = time.perf_counter()
        for dep in record.deployments.values():
            remote.control_request(dep.connector.host,
                                   dep.connector.machine_port, "TERMINATE")
        got = wait_machine_counts(self.addresses, [0] * HOSTS)
        part["teardown"].append(time.perf_counter() - t0)
        self._mark("check")
        self.out.check(got == [0] * HOSTS,
                       f"cycle {self.cycle_index}: machines after "
                       f"teardown {got}")

    # --- figures -------------------------------------------------------------

    @staticmethod
    def end_to_end(part: dict) -> dict:
        return {
            "op1_ms": median(part["deploy"]) * 1e3,
            "op2_ms": median(part["rewire"]) * 1e3,
            "op3_ms": median(part["move"]) * 1e3,
        }
