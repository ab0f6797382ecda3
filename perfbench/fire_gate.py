"""Workload ``fire_gate``: a closed loop of fires at one node's gate.

Every fire carries a ``demo.Echo`` component bundle with its own
seed-derived payload datum, so every fire document is distinct. One fire
in each round of four is signed with a key the node does not trust,
under the trusted entity's name, and must be refused with
``BadSignature``; the seed chooses its place in the round.

An accepted fire runs the whole gate: parse, VER lookup, signature check,
capability check, spawn and the process-binder write. The client then
sends one message round the new machine's default channel, stops the
machine with ``TERMINATE`` and waits until the node has dropped it from
its process binder, before it fires again. A refused fire parses and
verifies and then stops. No engine runs and no named channel is wired.

Why components and not installer bundles: a tool machine ends by itself
as soon as it has reported, and its binder removal can then run while
the node is still writing the binders for that same fire (the binder
FOUND lines in CHANGES.md), which fails the fire with ``NotBound`` now
and then. A machine that only ends on ``TERMINATE``, with each fire
waiting until the last machine is unbound, keeps every node-side binder
write in sequence, so no fire fails at random.

The signature covers only the CODE section, so one signature per key
serves every fire; all fire documents are built before the clock starts,
and any refill the loop needs is built with the clock stopped.
"""

from __future__ import annotations

import random
import sys
import time

from cingal import remote, security
from cingal.bundle import (
    Authentication,
    Bundle,
    CodeSection,
    Datum,
    serialize_bundle,
)
from cingal.errors import BadSignature, CingalError
from cingal.harness import DEPLOYER_ENTITY, harness_spawn

from common import Outcome, ThreadPeak, median, open_fds, wait_machine_counts

ROUND = 4  # fires per round; one of them forged
ROUNDS_PER_SECOND = 150  # pre-built capacity: 600 fires/s of run length
WARMUP_ROUNDS = 25
TIMEOUT = 10.0


class FireGate:
    # Run the whole process on one CPU (see README.md, "Sources of
    # spread"): with time taken by the hypervisor, hand-offs between
    # threads on two vCPUs made this workload's figures swing by 2-3x.
    ONE_CPU = True

    def __init__(self, seed: int, work_dir, outcome: Outcome):
        self.seed = seed
        self.work_dir = work_dir
        self.out = outcome
        self.topo = None
        self.peak = ThreadPeak()

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.topo = harness_spawn(1, base_dir=self.work_dir)
        self.address = self.topo.nodes[0].address
        self.server = self.topo.nodes[0].server
        untrusted_key, _ = security.generate_keypair()
        self.code = CodeSection("demo.Echo", "builtin")

        def auth(key):
            return security.sign_bundle(
                Bundle(Authentication("", ""), self.code), key,
                DEPLOYER_ENTITY).auth

        self.trusted = auth(self.topo.deployer_key)
        self.forged = auth(untrusted_key)
        self.serial = 0
        self._loop(self._build(WARMUP_ROUNDS), None, self._new_part())
        self._check_node()

    def close(self) -> None:
        if self.topo is not None:
            self.topo.stop()

    @staticmethod
    def _new_part() -> dict:
        return {"fire": [], "refuse": [], "cycle": []}

    def _build(self, rounds: int) -> list[tuple[bytes, bytes, bool]]:
        """(fire document, echo message, forged) for whole rounds."""
        docs = []
        for _ in range(rounds):
            forged_slot = self.rng.randrange(ROUND)
            for slot in range(ROUND):
                self.serial += 1
                blob = self.rng.randbytes(24)
                forged = slot == forged_slot
                doc = serialize_bundle(Bundle(
                    self.forged if forged else self.trusted, self.code,
                    (Datum("Serial", str(self.serial)),
                     Datum("Blob", blob.hex()))))
                docs.append((doc, b"%d:" % self.serial + blob, forged))
        return docs

    def measure(self, seconds: float, tracer=None) -> dict:
        part = self._new_part()
        threads0, fds0 = self.peak.sample(), open_fds()
        inputs = self._build(max(1, int(seconds * ROUNDS_PER_SECOND)))
        if tracer is not None:
            tracer.window = "fire"
        wall = 0.0
        while True:
            t0 = time.perf_counter()
            done = self._loop(inputs, t0 + seconds - wall, part)
            wall += time.perf_counter() - t0
            if done < len(inputs):
                break
            inputs = self._build(max(1, int(seconds * ROUNDS_PER_SECOND)))
        self._check_node()
        part.update(ops=len(part["fire"]) + len(part["refuse"]),
                    threads_left=self.peak.sample() - threads0,
                    fds_left=open_fds() - fds0)
        return part

    def _loop(self, inputs, deadline, part) -> int:
        """Fire whole rounds until ``deadline``; returns the fires sent."""
        for i, (doc, message, forged) in enumerate(inputs):
            if (i % ROUND == 0 and deadline is not None
                    and time.perf_counter() >= deadline):
                return i
            self.out.attempted += 1
            t0 = time.perf_counter()
            try:
                handle = remote.fire(self.address, doc)
            except BadSignature:
                part["refuse"].append(time.perf_counter() - t0)
                self.out.check(forged, f"trusted fire {i} refused")
                self.out.check(not self.server.machines(),
                               f"refused fire {i} left a machine")
                continue
            except CingalError as exc:
                self.out.failed += 1
                print(f"fire_gate: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            part["fire"].append(time.perf_counter() - t0)
            self.out.check(not forged, f"forged fire {i} was accepted")
            try:
                self._echo_and_stop(handle, message)
            except CingalError as exc:
                self.out.failed += 1
                print(f"fire_gate machine: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            finally:
                handle.close()
            part["cycle"].append(time.perf_counter() - t0)
        return len(inputs)

    def _echo_and_stop(self, handle, message: bytes) -> None:
        """One round trip on the default channel, then stop the machine and
        wait until the node has unbound it."""
        c = handle.connector
        machine = next((m for m in self.server.machines()
                        if m.connector == c), None)
        self.out.check(machine is not None,
                       f"no machine listed at connector {c}")
        handle.write(message)
        echoed = handle.read(timeout=TIMEOUT)
        self.out.check(echoed == message, f"echo returned {echoed[:40]!r}")
        remote.control_request(c.host, c.machine_port, "TERMINATE")
        if machine is None:
            return
        name = machine.machine_id.hex
        deadline = time.perf_counter() + TIMEOUT
        while name in self.server.pbinder and time.perf_counter() < deadline:
            time.sleep(0.0001)
        self.out.check(name not in self.server.pbinder,
                       f"machine {name} stayed bound after TERMINATE")

    def _check_node(self) -> None:
        got = wait_machine_counts([self.address], [0])
        self.out.check(got == [0], f"machines left after the loop: {got}")
        self.out.check(not len(self.server.pbinder),
                       f"process binder holds {self.server.pbinder.names()}")

    @staticmethod
    def end_to_end(part: dict) -> dict:
        return {
            "op1_ms": median(part["fire"]) * 1e3,
            "op2_ms": median(part["refuse"]) * 1e3,
            "op3_ms": median(part["cycle"]) * 1e3,
        }
