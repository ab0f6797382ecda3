"""DDD parsing and the deployment engine.

A Deployment Description Document (DDD) statically describes bundles,
hosts, component-to-host deployments and named-channel connections.
The engine enacts a DDD in three strictly ordered phases — install, run,
wire — by configuring generic tool bundles with to-do lists, firing them
at the target nodes, and harvesting their task reports. The wire phase
fires one wirer per (source host, destination host) pair; that wirer
fires one offspring at the destination host carrying all of the pair's
connections. It can then evolve the running topology by rewiring
connections or moving components without restarting unaffected machines.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlparse

from . import remote, xmlcanon
from .bundle import Authentication, Bundle, CodeSection, Datum, parse_bundle
from .bundle import bundle_to_element, serialize_bundle
from .channels import Connector
from .documents import Task, TaskReport, ToDoList, read_report, todolist_content
from .errors import (
    CingalError,
    DanglingReference,
    PhaseFailed,
    SchemaViolation,
)
from .guid import Guid, compute_guid
from .machine import ENTRY_INSTALLER, ENTRY_RUNNER, ENTRY_WIRER
from .security import sign_bundle
from .xmlcanon import element

DEFAULT_FIRE_PORT = 4126

PHASE_INSTALL = "install"
PHASE_RUN = "run"
PHASE_WIRE = "wire"

STATE_INSTALLED = "installed"
STATE_RUNNING = "running"
STATE_WIRED = "wired"

UNWIRED = "UNWIRED"
CONNECTED = "CONNECTED"


# --- the DDD ---------------------------------------------------------------

@dataclass(frozen=True)
class BundleRef:
    name: str
    source: str


@dataclass(frozen=True)
class HostRef:
    id: str
    address: str  # "addr" or "addr:firePort"


@dataclass(frozen=True)
class DeploymentRef:
    name: str
    bundle: str
    target: str


@dataclass(frozen=True)
class ConnectionRef:
    source_deployment: str
    source_channel: str
    destination_deployment: str
    destination_channel: str

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.source_deployment, self.source_channel,
                self.destination_deployment, self.destination_channel)


@dataclass(frozen=True)
class DDD:
    name: str
    bundles: tuple[BundleRef, ...]
    hosts: tuple[HostRef, ...]
    deployments: tuple[DeploymentRef, ...]
    connections: tuple[ConnectionRef, ...]


def connection_from_element(el) -> ConnectionRef:
    """The connection named by a CONNECTION or CONNECTIONSTATE element."""
    src, dst = el.find("SOURCE"), el.find("DESTINATION")
    if src is None or dst is None:
        raise SchemaViolation(f"{el.tag} needs SOURCE and DESTINATION")
    return ConnectionRef(src.get("deployment", ""), src.get("channel", ""),
                         dst.get("deployment", ""), dst.get("channel", ""))


def connection_to_element(ref: ConnectionRef, tag: str = "CONNECTION",
                          attrib: dict[str, str] | None = None):
    return element(tag, attrib, children=[
        element("SOURCE", {"deployment": ref.source_deployment,
                           "channel": ref.source_channel}),
        element("DESTINATION", {"deployment": ref.destination_deployment,
                                "channel": ref.destination_channel}),
    ])


def parse_connections(doc: bytes | str) -> list[ConnectionRef]:
    """The connections of a CONNECTIONS document, as ``rewire`` takes them."""
    root = xmlcanon.parse_document(doc)
    if root.tag != "CONNECTIONS":
        raise SchemaViolation(f"expected CONNECTIONS root, got {root.tag}")
    return [connection_from_element(e) for e in root.findall("CONNECTION")]


def parse_ddd(doc: bytes | str) -> DDD:
    root = xmlcanon.parse_document(doc)
    return ddd_from_element(root)


def ddd_from_element(root) -> DDD:
    if root.tag != "DDD":
        raise SchemaViolation(f"expected DDD root, got {root.tag}")

    def section(tag):
        el = root.find(tag)
        return list(el) if el is not None else []

    bundles = tuple(BundleRef(e.get("name", ""), e.get("source", ""))
                    for e in section("BUNDLES"))
    hosts = tuple(HostRef(e.get("id", ""), e.get("address", ""))
                  for e in section("HOSTS"))
    deployments = tuple(
        DeploymentRef(e.get("name", ""), e.get("bundle", ""),
                      e.get("target", ""))
        for e in section("DEPLOYMENTS"))
    connections = tuple(connection_from_element(e)
                        for e in section("CONNECTIONS"))

    ddd = DDD(root.get("name", ""), bundles, hosts, deployments, connections)
    _check_references(ddd)
    return ddd


def _check_references(ddd: DDD) -> None:
    bundle_names = {b.name for b in ddd.bundles}
    host_ids = {h.id for h in ddd.hosts}
    dep_names = [d.name for d in ddd.deployments]
    if len(dep_names) != len(set(dep_names)):
        raise SchemaViolation("deployment names must be unique")
    if len(host_ids) != len(ddd.hosts):
        raise SchemaViolation("host ids must be unique")
    for d in ddd.deployments:
        if d.bundle not in bundle_names:
            raise DanglingReference(
                f"deployment {d.name} references unknown bundle {d.bundle!r}")
        if d.target not in host_ids:
            raise DanglingReference(
                f"deployment {d.name} targets unknown host {d.target!r}")
    dep_set = set(dep_names)
    for c in ddd.connections:
        for endpoint in (c.source_deployment, c.destination_deployment):
            if endpoint not in dep_set:
                raise DanglingReference(
                    f"connection references unknown deployment {endpoint!r}")


def ddd_to_element(ddd: DDD):
    return element("DDD", {"name": ddd.name}, children=[
        element("BUNDLES", children=[
            element("BUNDLE", {"name": b.name, "source": b.source})
            for b in ddd.bundles]),
        element("HOSTS", children=[
            element("HOST", {"id": h.id, "address": h.address})
            for h in ddd.hosts]),
        element("DEPLOYMENTS", children=[
            element("DEPLOYMENT", {"name": d.name, "bundle": d.bundle,
                                   "target": d.target})
            for d in ddd.deployments]),
        element("CONNECTIONS", children=[
            connection_to_element(c) for c in ddd.connections]),
    ])


# --- to-do list generation ---------------------------------------------------

def _task_guid(digest: str, *parts: str) -> str:
    return str(compute_guid("\x00".join(parts).encode("utf-8"), digest))


def generate_todolist(phase: str, inputs, digest: str = "md5") -> ToDoList:
    """Build the to-do list configuring one tool bundle.

    install: inputs are payload datum ids -> INSTALL tasks with PayloadRef.
    run: inputs are store keys -> RUN tasks with StoreGuid.
    wire: inputs are (primary Connector, secondary Connector, primary
    channel name, secondary channel name) tuples -> WIRE tasks.
    """
    tasks = []
    if phase == PHASE_INSTALL:
        for payload_id in inputs:
            tasks.append(Task(
                guid=_task_guid(digest, "install", payload_id),
                type="INSTALL",
                datums=(Datum("PayloadRef", payload_id),)))
    elif phase == PHASE_RUN:
        # index the guid: the same stored bundle may be run several times
        for i, key in enumerate(inputs):
            tasks.append(Task(
                guid=_task_guid(digest, "run", str(i), str(key)),
                type="RUN",
                datums=(Datum("StoreGuid", str(key)),)))
    elif phase == PHASE_WIRE:
        for primary, secondary, primary_name, secondary_name in inputs:
            tasks.append(Task(
                guid=_task_guid(digest, "wire", str(primary), str(secondary),
                                primary_name, secondary_name),
                type="WIRE",
                datums=(
                    Datum("PrimaryConnector",
                          xmlcanon.canonical(
                              element("CONNECTOR", primary.attrib()))),
                    Datum("SecondaryConnector",
                          xmlcanon.canonical(
                              element("CONNECTOR", secondary.attrib()))),
                    Datum("PrimaryNamedChannel", primary_name),
                    Datum("SecondaryNamedChannel", secondary_name),
                )))
    else:
        raise ValueError(f"unknown phase: {phase}")
    return ToDoList(tuple(tasks))


# --- deployment record ---------------------------------------------------------

@dataclass
class DeploymentState:
    name: str
    bundle: str
    source: str
    host: str
    state: str = STATE_INSTALLED
    store_key: Guid | None = None
    connector: Connector | None = None


@dataclass
class ConnectionState:
    ref: ConnectionRef
    status: str = UNWIRED


@dataclass
class DeploymentRecord:
    name: str
    hosts: dict[str, str]  # host id -> fire address "host:port"
    deployments: dict[str, DeploymentState]
    connections: dict[tuple, ConnectionState]

    def deployment_state(self, name: str) -> str:
        return self.deployments[name].state

    def refresh_states(self) -> None:
        """Derive each deployment's state from its connections."""
        for dep in self.deployments.values():
            if dep.connector is None:
                dep.state = STATE_INSTALLED if dep.store_key else dep.state
                continue
            touching = [c for c in self.connections.values()
                        if dep.name in (c.ref.source_deployment,
                                        c.ref.destination_deployment)]
            if touching and all(c.status == CONNECTED for c in touching):
                dep.state = STATE_WIRED
            else:
                dep.state = STATE_RUNNING

    def to_bytes(self) -> bytes:
        dep_els = []
        for dep in self.deployments.values():
            attrib = {"name": dep.name, "bundle": dep.bundle,
                      "source": dep.source, "host": dep.host,
                      "state": dep.state}
            if dep.store_key is not None:
                attrib["storeKey"] = str(dep.store_key)
            children = []
            if dep.connector is not None:
                children.append(element("CONNECTOR", dep.connector.attrib()))
            dep_els.append(element("DEPLOYMENTSTATE", attrib,
                                   children=children))
        conn_els = [
            connection_to_element(c.ref, "CONNECTIONSTATE",
                                  {"status": c.status})
            for c in self.connections.values()]
        host_els = [element("HOST", {"id": hid, "address": addr})
                    for hid, addr in sorted(self.hosts.items())]
        return xmlcanon.canonical_bytes(element(
            "DEPLOYMENTRECORD", {"name": self.name}, children=[
                element("HOSTS", children=host_els),
                element("DEPLOYMENTS", children=dep_els),
                element("CONNECTIONS", children=conn_els),
            ]))

    @classmethod
    def from_bytes(cls, doc: bytes | str) -> "DeploymentRecord":
        root = xmlcanon.parse_document(doc)
        if root.tag != "DEPLOYMENTRECORD":
            raise SchemaViolation(f"expected DEPLOYMENTRECORD, got {root.tag}")
        hosts = {e.get("id", ""): e.get("address", "")
                 for e in root.find("HOSTS") or []}
        deployments = {}
        for e in root.find("DEPLOYMENTS") or []:
            conn_el = e.find("CONNECTOR")
            key = e.get("storeKey")
            deployments[e.get("name", "")] = DeploymentState(
                name=e.get("name", ""), bundle=e.get("bundle", ""),
                source=e.get("source", ""), host=e.get("host", ""),
                state=e.get("state", STATE_INSTALLED),
                store_key=Guid(key) if key else None,
                connector=Connector.from_element(conn_el)
                if conn_el is not None else None)
        connections = {}
        for e in root.find("CONNECTIONS") or []:
            ref = connection_from_element(e)
            connections[ref.key] = ConnectionState(
                ref, e.get("status", UNWIRED))
        return cls(root.get("name", ""), hosts, deployments, connections)

    def comparable(self) -> dict:
        """Port-free view for determinism comparisons."""
        return {
            "deployments": {
                n: (d.state, str(d.store_key), d.host)
                for n, d in self.deployments.items()},
            "connections": {
                k: c.status for k, c in self.connections.items()},
        }


# --- the engine --------------------------------------------------------------

class Engine:
    """Enacts DDDs against live nodes and evolves the result."""

    def __init__(self, entity: str, private_key_pem: str,
                 default_fire_port: int = DEFAULT_FIRE_PORT,
                 catalogue: str | Path | None = None,
                 digest: str = "md5",
                 report_timeout: float = 30.0):
        self.entity = entity
        self._key = private_key_pem
        self.default_fire_port = default_fire_port
        self.catalogue = Path(catalogue) if catalogue else None
        self.digest = digest
        self.report_timeout = report_timeout
        self.progress: list[str] = []
        self._tool_auth: dict[str, Authentication] = {}
        self._tool_auth_lock = threading.Lock()

    # --- bundle sources -------------------------------------------------------

    def load_bundle_source(self, source: str) -> Bundle:
        if source.startswith("file://"):
            path = Path(urlparse(source).path)
        else:
            path = Path(source)
            if not path.is_absolute() and self.catalogue is not None:
                path = self.catalogue / path
        try:
            return parse_bundle(path.read_bytes())
        except OSError as exc:
            raise SchemaViolation(f"cannot read bundle source {source!r}: "
                                  f"{exc}") from exc

    def fire_address(self, host: HostRef | str) -> str:
        address = host.address if isinstance(host, HostRef) else host
        if ":" in address:
            return address
        return f"{address}:{self.default_fire_port}"

    # --- tool plumbing ----------------------------------------------------------

    def _tool_bundle(self, entry: str, datums: list[Datum]) -> Bundle:
        # Each tool kind is signed once: the signature covers only CODE.
        code = CodeSection(entry, "builtin")
        with self._tool_auth_lock:
            if entry not in self._tool_auth:
                self._tool_auth[entry] = sign_bundle(
                    Bundle(Authentication("", ""), code), self._key,
                    self.entity).auth
        return Bundle(self._tool_auth[entry], code, tuple(datums))

    def _fire_tool(self, address: str, tool: Bundle) -> TaskReport:
        return read_report(remote.fire(address, serialize_bundle(tool)),
                           self.report_timeout)

    def _note(self, phase: str, node: str, ok: bool) -> None:
        self.progress.append(
            f"phase:{phase} node:{node} status:{'ok' if ok else 'failed'}")

    # --- deployment ------------------------------------------------------------

    def deploy(self, ddd: DDD, phase_hook=None,
               parallel_wire: bool = True) -> DeploymentRecord:
        """Run the three phases; raises PhaseFailed with the partial record."""
        record = self._new_record(ddd)
        self._install_phase(record)
        if phase_hook:
            phase_hook(PHASE_INSTALL, record)
        self._run_phase(record)
        if phase_hook:
            phase_hook(PHASE_RUN, record)
        self._wire_phase(record, list(record.connections.values()),
                         parallel=parallel_wire)
        if phase_hook:
            phase_hook(PHASE_WIRE, record)
        return record

    def _new_record(self, ddd: DDD) -> DeploymentRecord:
        sources = {b.name: b.source for b in ddd.bundles}
        hosts = {h.id: self.fire_address(h) for h in ddd.hosts}
        deployments = {
            d.name: DeploymentState(name=d.name, bundle=d.bundle,
                                    source=sources[d.bundle], host=d.target)
            for d in ddd.deployments}
        connections = {c.key: ConnectionState(c) for c in ddd.connections}
        return DeploymentRecord(ddd.name, hosts, deployments, connections)

    def _deployments_by_host(self, record: DeploymentRecord,
                             names=None) -> dict[str, list[DeploymentState]]:
        by_host: dict[str, list[DeploymentState]] = {}
        for dep in record.deployments.values():
            if names is not None and dep.name not in names:
                continue
            by_host.setdefault(dep.host, []).append(dep)
        return by_host

    def _install_phase(self, record: DeploymentRecord, names=None) -> None:
        payloads: dict[str, tuple[str, str]] = {}  # source -> (id, content)
        for host_id, deps in sorted(
                self._deployments_by_host(record, names).items()):
            address = record.hosts[host_id]
            payload_datums, payload_ids = [], []
            expected = {}
            for dep in deps:
                if dep.source not in payloads:
                    content = xmlcanon.canonical(bundle_to_element(
                        self.load_bundle_source(dep.source)))
                    payloads[dep.source] = (
                        str(compute_guid(content.encode("utf-8"),
                                         self.digest)), content)
                payload_id, content = payloads[dep.source]
                if payload_id not in expected:
                    payload_datums.append(Datum(payload_id, content))
                    payload_ids.append(payload_id)
                expected.setdefault(payload_id, []).append(dep)
            todo = generate_todolist(PHASE_INSTALL, payload_ids, self.digest)
            tool = self._tool_bundle(
                ENTRY_INSTALLER,
                payload_datums + [Datum("ToDoList", todolist_content(todo))])
            try:
                report = self._fire_tool(address, tool)
                if not report.all_ok or len(report.results) != len(
                        todo.tasks):
                    raise SchemaViolation(_report_failure(report))
                for result in report.results:
                    payload_ref, key = result.info[0]
                    for dep in expected[payload_ref]:
                        dep.store_key = Guid(key)
                        dep.state = STATE_INSTALLED
            except CingalError as exc:
                self._note(PHASE_INSTALL, host_id, False)
                record.refresh_states()
                raise PhaseFailed(PHASE_INSTALL, host_id, str(exc),
                                  record) from exc
            self._note(PHASE_INSTALL, host_id, True)

    def _run_phase(self, record: DeploymentRecord, names=None) -> None:
        for host_id, deps in sorted(
                self._deployments_by_host(record, names).items()):
            address = record.hosts[host_id]
            keys = [dep.store_key for dep in deps]
            todo = generate_todolist(PHASE_RUN, keys, self.digest)
            tool = self._tool_bundle(
                ENTRY_RUNNER, [Datum("ToDoList", todolist_content(todo))])
            try:
                report = self._fire_tool(address, tool)
                if not report.all_ok or len(report.results) != len(deps):
                    raise SchemaViolation(_report_failure(report))
                for dep, result in zip(deps, report.results):
                    dep.connector = Connector.parse(
                        result.info_value("Connector"))
                    dep.state = STATE_RUNNING
            except CingalError as exc:
                self._note(PHASE_RUN, host_id, False)
                record.refresh_states()
                raise PhaseFailed(PHASE_RUN, host_id, str(exc),
                                  record) from exc
            self._note(PHASE_RUN, host_id, True)

    def _wire_group(self, record: DeploymentRecord, source_host: str,
                    dest_host: str, conns: list[ConnectionState]) -> None:
        deps = record.deployments
        todo = generate_todolist(
            PHASE_WIRE,
            [(deps[c.ref.source_deployment].connector,
              deps[c.ref.destination_deployment].connector,
              c.ref.source_channel, c.ref.destination_channel)
             for c in conns],
            self.digest)
        tool = self._tool_bundle(ENTRY_WIRER, [
            Datum("ToDoList", todolist_content(todo)),
            Datum("SecondaryFireAddress", record.hosts[dest_host]),
        ])
        report = self._fire_tool(record.hosts[source_host], tool)
        for conn, result in zip(conns, report.results):
            if result.ok:
                conn.status = CONNECTED
        if not report.all_ok or len(report.results) != len(conns):
            raise SchemaViolation(_report_failure(report))

    def _wire_phase(self, record: DeploymentRecord,
                    connections: list[ConnectionState],
                    parallel: bool = True) -> None:
        groups: dict[tuple[str, str], list[ConnectionState]] = {}
        for conn in connections:
            pair = (record.deployments[conn.ref.source_deployment].host,
                    record.deployments[conn.ref.destination_deployment].host)
            groups.setdefault(pair, []).append(conn)
        failures: list[tuple[str, CingalError]] = []

        def run(pair: tuple[str, str], conns: list[ConnectionState]) -> None:
            try:
                self._wire_group(record, *pair, conns)
                self._note(PHASE_WIRE, pair[0], True)
            except CingalError as exc:
                self._note(PHASE_WIRE, pair[0], False)
                failures.append((pair[0], exc))

        pairs = sorted(groups.items())
        if parallel and len(pairs) > 1:
            threads = [threading.Thread(target=run, args=item, daemon=True)
                       for item in pairs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            for item in pairs:
                run(*item)
        record.refresh_states()
        if failures:
            host_id, exc = failures[0]
            raise PhaseFailed(PHASE_WIRE, host_id, str(exc), record) from exc

    # --- evolution ----------------------------------------------------------------

    def rewire(self, record: DeploymentRecord,
               new_connections: list[ConnectionRef],
               phase_hook=None) -> DeploymentRecord:
        """Move to a new connection set without restarting any machine."""
        new_keys = {c.key for c in new_connections}
        current_keys = set(record.connections)
        removed = current_keys - new_keys
        added = new_keys - current_keys
        if not removed and not added:
            return record

        if removed:
            for key in sorted(removed):
                self._disconnect(record, record.connections[key])
                del record.connections[key]
            record.refresh_states()
            if phase_hook:
                phase_hook("unwire", record)

        to_wire = []
        for c in new_connections:
            if c.key in added:
                state = ConnectionState(c)
                record.connections[c.key] = state
                to_wire.append(state)
        if to_wire:
            self._wire_phase(record, to_wire)
            if phase_hook:
                phase_hook(PHASE_WIRE, record)
        return record

    def _disconnect(self, record: DeploymentRecord, conn: ConnectionState,
                    leaving: str | None = None) -> None:
        """DISCONNECT both ends, except the end of deployment ``leaving``,
        which its TERMINATE closes."""
        ends = [
            (record.deployments[conn.ref.source_deployment],
             conn.ref.source_channel),
            (record.deployments[conn.ref.destination_deployment],
             conn.ref.destination_channel),
        ]
        for dep, channel in ends:
            if dep.name == leaving:
                continue
            try:
                remote.control_request(dep.connector.host,
                                       dep.connector.machine_port,
                                       "DISCONNECT", {"name": channel})
            except CingalError as exc:
                record.refresh_states()
                raise PhaseFailed("unwire", dep.host, str(exc),
                                  record) from exc
        conn.status = UNWIRED

    def move_component(self, record: DeploymentRecord, name: str,
                       new_host: str, phase_hook=None) -> DeploymentRecord:
        """Relocate one deployment: unwire, terminate, reinstall, run, rewire."""
        if name not in record.deployments:
            raise SchemaViolation(f"unknown deployment {name!r}")
        if new_host not in record.hosts:
            raise DanglingReference(f"unknown host {new_host!r}")
        dep = record.deployments[name]
        touching = [c for c in record.connections.values()
                    if name in (c.ref.source_deployment,
                                c.ref.destination_deployment)]

        for conn in touching:
            if conn.status == CONNECTED:
                self._disconnect(record, conn, leaving=name)
        record.refresh_states()
        if phase_hook:
            phase_hook("unwire", record)

        if dep.connector is not None:
            try:
                remote.control_request(dep.connector.host,
                                       dep.connector.machine_port,
                                       "TERMINATE")
            except CingalError as exc:
                raise PhaseFailed("terminate", dep.host, str(exc),
                                  record) from exc
        dep.connector = None
        dep.host = new_host
        dep.state = STATE_INSTALLED

        self._install_phase(record, names={name})
        if phase_hook:
            phase_hook(PHASE_INSTALL, record)
        self._run_phase(record, names={name})
        record.refresh_states()
        if phase_hook:
            phase_hook(PHASE_RUN, record)
        if touching:
            self._wire_phase(record, touching)
        if phase_hook:
            phase_hook(PHASE_WIRE, record)
        return record


def _report_failure(report: TaskReport) -> str:
    parts = []
    for result in report.results:
        info = ",".join(f"{k}={v}" for k, v in result.info)
        parts.append(f"task {result.guid}: {result.status} {info}")
    return "; ".join(parts) or "empty task report"
