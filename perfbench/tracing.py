"""Spans recorded around calls into the program, and the per-layer report.

``Tracer.install`` replaces public functions and methods of the program's
modules with wrappers that record one span per call: name, start, end,
parent span, thread, wall time and the calling thread's CPU time
(``time.thread_time``), so a layer's busy time is kept apart from its
waits on the interpreter lock and on I/O. A function imported by name
into another module (``node`` takes ``parse_bundle`` from ``bundle``,
``engine`` takes ``sign_bundle`` from ``security``, ...) is replaced there
too. ``uninstall`` puts every original back.

Spans are kept in memory and written out when the run ends. Each span
also carries the workload loop's current window label ("deploy",
"msg64", "fire", ...), so work done on node threads is attributed to the
operation the loop was timing when the span started.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict, namedtuple
from pathlib import Path

from common import mean, median, percentile

# (module, function or Class.method); the span is named module.target
TARGETS = (
    ("engine", "Engine.deploy"),
    ("engine", "Engine.rewire"),
    ("engine", "Engine.move_component"),
    ("engine", "generate_todolist"),
    ("remote", "fire"),
    ("remote", "control_request"),
    ("remote", "node_status"),
    ("node", "ThinServer.fire"),
    ("node", "ThinServer.spawn_verified"),
    ("machine", "spawn_machine"),
    ("machine", "Machine.terminate"),
    ("security", "sign_bundle"),
    ("security", "verify_bundle"),
    ("xmlcanon", "parse_document"),
    ("xmlcanon", "canonical_bytes"),
    ("xmlcanon", "canonical"),
    ("bundle", "parse_bundle"),
    ("bundle", "serialize_bundle"),
    ("store", "Store.put"),
    ("store", "Store.get"),
    ("store", "Binder.put"),
    ("store", "Binder.remove"),
    ("channels", "send_frame"),
    ("channels", "recv_frame"),
)

# bytes a call moves, for the spans where that is a layer figure
SIZES = {"channels.send_frame": lambda args: len(args[1])}

EMITS = ("xmlcanon.canonical_bytes", "xmlcanon.canonical")


class Span(namedtuple("Span", "id parent parent_name name thread start end "
                             "cpu ok window size")):
    __slots__ = ()

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.window = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        size_of = SIZES.get(name)
        perf, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack and stack[-1][1] == name:
                # a recursive call (canonical -> canonical) is one span
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent, parent_name = stack[-1] if stack else (0, "")
            stack.append((sid, name))
            window = tracer.window
            ok = False
            c0, w0 = cpu_clock(), perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                w1, c1 = perf(), cpu_clock()
                stack.pop()
                tracer.spans.append(Span(
                    sid, parent, parent_name, name, threading.get_ident(),
                    w0, w1, c1 - c0, ok, window,
                    size_of(args) if size_of else 0))

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cingal" or n.startswith("cingal.")]
        for module_name, target in TARGETS:
            module = sys.modules[f"cingal.{module_name}"]
            name = f"{module_name}.{target}"
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, target)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span._asdict()) + "\n")


# --- the per-layer report ----------------------------------------------------

def layer_metrics(workload, tracer: Tracer, base: dict, traced: dict) -> dict:
    """Per-layer figures of the traced half, plus the overhead of tracing.

    Counts are per operation of the traced half (a lifecycle cycle, a
    stream message, a gate fire), or per deploy or per gate fire where the
    name says so. Per-call times are means over the traced half, or over
    set-up where the traced half makes no such call.
    """
    loop = defaultdict(list)
    setup = defaultdict(list)
    for span in tracer.spans:
        (setup if span.window == "setup" else loop)[span.name].append(span)

    def calls(name, window=None):
        return [s for s in loop[name] if window is None or s.window == window]

    def per_call(*names, field="cpu", scale=1e3):
        spans = ([s for n in names for s in loop[n]]
                 or [s for n in names for s in setup[n]])
        return mean([getattr(s, field) for s in spans]) * scale

    def ratio(n, d):
        return n / d if d else 0.0

    ops = traced["ops"]
    deploys = len(traced.get("deploy", []))
    gate = calls("node.ThinServer.fire")
    fires = len(gate)

    phases = defaultdict(list)
    for marks in traced.get("phases", []):
        times = {phase: t for _, phase, t in marks}
        op = marks[0][0]
        order = ["start"] + [p for _, p, _ in marks[1:]]
        for prev, cur in zip(order, order[1:]):
            phases[(op, cur)].append(times[cur] - times[prev])

    base_e2e = workload.end_to_end(base)
    traced_e2e = workload.end_to_end(traced)
    return {
        "engine.install_s": median(phases[("deploy", "install")]),
        "engine.run_s": median(phases[("deploy", "run")]),
        "engine.wire_s": median(phases[("deploy", "wire")]),
        "engine.unwire_s": median(phases[("rewire", "unwire")]),
        "engine.fires_per_deploy": ratio(
            len(calls("remote.fire", "deploy")), deploys),
        "engine.signs_per_deploy": ratio(
            len(calls("security.sign_bundle", "deploy")), deploys),
        "node.fires_accepted": sum(1 for s in gate if s.ok),
        "node.fires_refused": sum(1 for s in gate if not s.ok),
        "node.gate_cpu_ms": per_call("node.ThinServer.fire"),
        "node.binder_writes_per_deploy": ratio(
            len(calls("store.Binder.put", "deploy"))
            + len(calls("store.Binder.remove", "deploy")), deploys),
        "node.binder_write_cpu_ms": per_call("store.Binder.put",
                                             "store.Binder.remove"),
        "machine.spawns_per_deploy": ratio(
            len(calls("machine.spawn_machine", "deploy")), deploys),
        "machine.spawn_cpu_ms": per_call("machine.spawn_machine"),
        "machine.spawn_wall_ms": per_call("machine.spawn_machine",
                                           field="wall"),
        "machine.teardown_s": median(traced.get("teardown", [])),
        "machine.threads_per_machine": traced.get("threads_per_machine", 0.0),
        "machine.threads_left_per_cycle": ratio(traced["threads_left"], ops),
        "machine.fds_left_per_cycle": ratio(traced["fds_left"], ops),
        "security.verify_calls": ratio(
            len(calls("security.verify_bundle")), ops),
        "security.verify_cpu_ms": per_call("security.verify_bundle"),
        "security.sign_cpu_ms": per_call("security.sign_bundle"),
        "xmlcanon.parses_per_fire": ratio(
            len(calls("xmlcanon.parse_document")), fires),
        "xmlcanon.parse_cpu_ms": per_call("xmlcanon.parse_document"),
        "xmlcanon.emits_per_fire": ratio(
            sum(1 for n in EMITS for s in loop[n]
                if s.parent_name not in EMITS), fires),
        "bundle.parses_per_fire": ratio(
            len(calls("bundle.parse_bundle")), fires),
        "store.puts": ratio(len(calls("store.Store.put")), ops),
        "store.gets": ratio(len(calls("store.Store.get")), ops),
        "store.put_cpu_ms": per_call("store.Store.put"),
        "remote.control_per_cycle": ratio(
            len(calls("remote.control_request")), ops),
        "remote.control_ms": per_call("remote.control_request",
                                      field="wall"),
        "remote.fire_result_ms": per_call("remote.fire", field="wall"),
        "channels.frames_per_msg": ratio(
            len(calls("channels.send_frame")), ops),
        "channels.bytes_per_msg": ratio(
            sum(s.size for s in loop["channels.send_frame"]), ops),
        "channels.send_cpu_us": per_call("channels.send_frame", scale=1e6),
        "proc.cpu_ms_per_op": ratio(traced["cpu"], ops) * 1e3,
        "proc.threads_peak": workload.peak.peak,
        "proc.steal_pct": traced["steal_pct"],
        "stream.msg_latency_p99_ms":
            percentile(base.get("msg64", []), 99) * 1e3,
        "stream.msg_latency_samples": len(base.get("msg64", [])),
        "fire_gate.fire_p99_ms": percentile(base.get("fire", []), 99) * 1e3,
        "fire_gate.fire_samples": len(base.get("fire", [])),
        "trace.overhead_pct": (traced_e2e["op1_ms"] / base_e2e["op1_ms"]
                               - 1.0) * 100.0,
    }
