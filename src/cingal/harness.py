"""Desk-scale multi-node test harness.

Spins up N thin servers on loopback (in-process by default, or as real
daemon subprocesses to exercise the CLI path), pre-provisions an admin
and a deployer entity on every node, and runs scripted end-to-end
scenarios against them.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import remote, xmlcanon
from .bundle import Authentication, Bundle, CodeSection, Datum, serialize_bundle
from .documents import read_report
from .engine import DeploymentRecord, Engine, parse_ddd
from .errors import AssertionFailed, CingalError, ResourceExhausted
from .machine import entity_bundle
from .node import NodeConfig, ThinServer, read_default, write_default
from .security import EntityRecord, generate_keypair, parse_rights, sign_bundle
from .xmlcanon import element

ADMIN_ENTITY = "harness-admin"
DEPLOYER_ENTITY = "harness-deployer"
DEPLOYER_RIGHTS = "STORE:PUT,GET;SBINDER:PUT,GET,REMOVE;FIRE:FIRE"


@dataclass
class NodeHandle:
    id: str
    address: str
    server: ThinServer | None = None  # None when running as a subprocess
    process: subprocess.Popen | None = None

    def status(self):
        return remote.node_status(self.address)


@dataclass
class TestTopology:
    nodes: list[NodeHandle]
    admin_key: str
    admin_cert: str
    deployer_key: str
    deployer_cert: str
    base_dir: Path
    _tmp: tempfile.TemporaryDirectory | None = None
    bundle_paths: dict[str, Path] = field(default_factory=dict)

    def node(self, index: int) -> NodeHandle:
        return self.nodes[index]

    def engine(self, **kwargs) -> Engine:
        kwargs.setdefault("catalogue", self.base_dir)
        return Engine(DEPLOYER_ENTITY, self.deployer_key, **kwargs)

    def write_component(self, name: str, entry: str,
                        channel: str | None = None,
                        signer_entity: str = DEPLOYER_ENTITY,
                        signer_key: str | None = None) -> Path:
        """Create a signed component bundle file in the topology dir."""
        datums = [Datum("ChannelName", channel)] if channel else []
        unsigned = Bundle(auth=Authentication("", ""),
                          code=CodeSection(entry, "builtin"),
                          data=tuple(datums))
        signed = sign_bundle(unsigned, signer_key or self.deployer_key,
                             signer_entity)
        path = self.base_dir / f"{name}.xml"
        path.write_bytes(serialize_bundle(signed))
        self.bundle_paths[name] = path
        return path

    def probe(self, record: DeploymentRecord, source: str, sink: str,
              payload: bytes, timeout: float = 5.0) -> bytes:
        """Push a probe through source's default channel and read it from
        sink's; the ground truth that wiring actually carries data."""
        src = record.deployments[source].connector
        dst = record.deployments[sink].connector
        write_default(src, payload)
        return read_default(dst, timeout=timeout)

    def stop(self) -> None:
        for handle in self.nodes:
            if handle.server is not None:
                handle.server.stop()
            if handle.process is not None:
                handle.process.terminate()
                handle.process.wait(timeout=10)
        if self._tmp is not None:
            self._tmp.cleanup()

    def __enter__(self) -> "TestTopology":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def harness_spawn(n: int, base_dir: str | Path | None = None,
                  digest: str = "md5",
                  subprocess_daemons: bool = False) -> TestTopology:
    """Start n independent loopback nodes with fresh data dirs.

    Admin and deployer entities are provisioned on all of them.
    """
    if n < 1:
        raise ResourceExhausted("need at least one node")
    tmp = None
    if base_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="cingal-harness-")
        base_dir = tmp.name
    base_dir = Path(base_dir)

    admin_key, admin_cert = generate_keypair()
    deployer_key, deployer_cert = generate_keypair()

    topology = TestTopology(nodes=[], admin_key=admin_key,
                            admin_cert=admin_cert, deployer_key=deployer_key,
                            deployer_cert=deployer_cert, base_dir=base_dir,
                            _tmp=tmp)
    try:
        for i in range(n):
            node_id = f"N{i}"
            config = NodeConfig(data_dir=str(base_dir / node_id),
                                address="127.0.0.1", fire_port=0,
                                digest=digest, admin_entity=ADMIN_ENTITY,
                                admin_certificate=admin_cert)
            if subprocess_daemons:
                handle = _spawn_daemon(base_dir, node_id, config)
            else:
                server = ThinServer.start(config)
                handle = NodeHandle(node_id, server.address, server=server)
            topology.nodes.append(handle)
        _provision_deployer(topology, subprocess_daemons)
    except BaseException:
        topology.stop()
        raise
    return topology


def _spawn_daemon(base_dir: Path, node_id: str,
                  config: NodeConfig) -> NodeHandle:
    config_path = base_dir / f"{node_id}-config.xml"
    config_path.write_bytes(config.to_bytes())
    proc = subprocess.Popen(
        [sys.executable, "-m", "cingal", "node", "start",
         "--config", str(config_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    if not line.startswith("fire-port:"):
        proc.terminate()
        raise ResourceExhausted(f"daemon failed to start: {line!r}")
    port = int(line.split(":", 1)[1].strip())
    return NodeHandle(node_id, f"127.0.0.1:{port}", process=proc)


def _provision_deployer(topology: TestTopology,
                        via_wire: bool) -> None:
    rights = parse_rights(DEPLOYER_RIGHTS)
    for handle in topology.nodes:
        if handle.server is not None and not via_wire:
            # a reused data dir may hold a stale deployer from an earlier
            # run, signed with a key this topology no longer has
            if DEPLOYER_ENTITY in handle.server.ver:
                handle.server.ver.remove(DEPLOYER_ENTITY)
            handle.server.ver.add(EntityRecord(
                DEPLOYER_ENTITY, topology.deployer_cert, rights))
        else:
            _fire_entity_add(handle.address, topology)


def _fire_entity_add(address: str, topology: TestTopology) -> None:
    unsigned = entity_bundle("ADD", DEPLOYER_ENTITY, topology.deployer_cert,
                             DEPLOYER_RIGHTS)
    signed = sign_bundle(unsigned, topology.admin_key, ADMIN_ENTITY)
    report = read_report(remote.fire(address, serialize_bundle(signed)), 10.0)
    if not report.all_ok:
        raise ResourceExhausted("deployer provisioning failed")


# --- machine/channel state helpers -------------------------------------------

def machine_element_for(status_root, connector):
    """Find the MACHINE entry of a status document by its connector."""
    for m in status_root.findall("MACHINE"):
        c = m.find("CONNECTOR")
        if (c is not None
                and c.get("machinePort") == str(connector.machine_port)
                and c.get("resourcePort") == str(connector.resource_port)):
            return m
    return None


def observed_channel_state(topology: TestTopology, record: DeploymentRecord,
                           deployment: str, channel: str) -> str:
    dep = record.deployments[deployment]
    handle = next(h for h in topology.nodes
                  if record.hosts[dep.host] == h.address)
    m = machine_element_for(handle.status(), dep.connector)
    if m is None:
        return "NO-MACHINE"
    for ch in m.findall("CHANNEL"):
        if ch.get("name") == channel:
            return ch.get("state", "UNBOUND")
    return "UNBOUND"


def observed_component_state(topology: TestTopology,
                             record: DeploymentRecord,
                             deployment: str) -> str:
    """Derive installed/running/wired for a component from node status."""
    dep = record.deployments[deployment]
    handle = next(h for h in topology.nodes
                  if record.hosts[dep.host] == h.address)
    status = handle.status()
    if dep.connector is None:
        return "installed" if dep.store_key is not None else "absent"
    m = machine_element_for(status, dep.connector)
    if m is None:
        return "installed" if dep.store_key is not None else "absent"
    states = [ch.get("state") for ch in m.findall("CHANNEL")]
    if states and all(s == "CONNECTED" for s in states):
        return "wired"
    return "running"


# --- scripted scenarios ---------------------------------------------------------

def run_scenario(topology: TestTopology, script: bytes | str) -> list[dict]:
    """Execute a SCENARIO document; raises AssertionFailed on mismatch.

    Steps: COMPONENT (write a demo bundle), DEPLOY (inline DDD),
    ASSERT-STATE, ASSERT-CHANNEL, PROBE, AWAIT-QUIESCE.
    Host addresses in the inline DDD may use {nodeN} placeholders; bundle
    sources may use {bundle:Name} for bundles written by COMPONENT steps.
    """
    root = xmlcanon.parse_document(script)
    if root.tag != "SCENARIO":
        raise AssertionFailed(0, f"expected SCENARIO, got {root.tag}")
    report: list[dict] = []
    record: DeploymentRecord | None = None
    engine = topology.engine()

    for index, step in enumerate(root):
        op = step.tag
        try:
            if op == "COMPONENT":
                topology.write_component(step.get("name", ""),
                                         step.get("entry", ""),
                                         step.get("channel"))
                detail = step.get("name", "")
            elif op == "DEPLOY":
                ddd_el = step.find("DDD")
                if ddd_el is None:
                    raise AssertionFailed(index, "DEPLOY step lacks a DDD")
                ddd = parse_ddd(_substitute(xmlcanon.canonical(ddd_el),
                                            topology))
                record = engine.deploy(ddd)
                detail = f"{len(record.deployments)} deployments"
            elif op == "ASSERT-STATE":
                name = step.get("deployment", "")
                want = step.get("state", "")
                got = observed_component_state(topology, record, name)
                if got != want:
                    raise AssertionFailed(
                        index, f"{name}: expected {want}, observed {got}")
                detail = f"{name}={got}"
            elif op == "ASSERT-CHANNEL":
                name = step.get("deployment", "")
                channel = step.get("channel", "")
                want = step.get("state", "")
                got = observed_channel_state(topology, record, name, channel)
                if got != want:
                    raise AssertionFailed(
                        index,
                        f"{name}/{channel}: expected {want}, observed {got}")
                detail = f"{name}/{channel}={got}"
            elif op == "PROBE":
                payload = (step.get("payload") or "probe").encode("utf-8")
                got = topology.probe(record, step.get("source", ""),
                                     step.get("sink", ""), payload,
                                     timeout=float(step.get("timeout", "5")))
                if got != payload:
                    raise AssertionFailed(
                        index, f"probe returned {got!r}, wanted {payload!r}")
                detail = f"{payload!r} delivered"
            elif op == "AWAIT-QUIESCE":
                time.sleep(float(step.get("timeout", "0.2")))
                detail = "quiesced"
            else:
                raise AssertionFailed(index, f"unknown step {op!r}")
        except AssertionFailed:
            raise
        except CingalError as exc:
            raise AssertionFailed(index, f"{op}: {exc}") from exc
        report.append({"step": index, "op": op, "ok": True, "detail": detail})
    return report


def _substitute(text: str, topology: TestTopology) -> str:
    for i, handle in enumerate(topology.nodes):
        text = text.replace(f"{{node{i}}}", handle.address)
    for name, path in topology.bundle_paths.items():
        text = text.replace(f"{{bundle:{name}}}", str(path))
    return text
