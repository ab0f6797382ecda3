"""Machines: the execution contexts created when bundles are fired.

A machine wraps one executing bundle with the infrastructure it needs:
a machine channel (TCP control endpoint for third parties), a default
channel back to its progenitor, a connection manager for named channels,
and a capability-checked API onto the node's store, binders and VER.
A machine fired over TCP uses its fire connection as its default channel,
and writes the OK FIRERESULT on it before its behaviour runs; READ_DEFAULT
and WRITE_DEFAULT reach only a local progenitor's channel.

Machines are isolated execution contexts inside the node daemon rather
than separate OS processes; the external contract (connectors, channels,
control protocol) is unaffected by that choice.

Bundle code is resolved through an executor registry keyed by entry-point
name; the generic installer/runner/wirer tools and the demo components
ship pre-registered.
"""

from __future__ import annotations

import base64
import threading

from . import remote, xmlcanon
from .bundle import Authentication, Bundle, CodeSection, Datum, nested_bundle
from .bundle import serialize_bundle
from .channels import (
    Acceptor,
    ChannelEndpoint,
    ConnectionManager,
    Connector,
    NamedChannelEndpoint,
    SocketEndpoint,
    channel_pair,
    recv_frame_within,
    send_frame,
)
from .documents import (
    STATUS_FAILED,
    STATUS_OK,
    Task,
    TaskReport,
    TaskResult,
    ToDoList,
    read_report,
    report_to_bytes,
    todolist_content,
    todolist_from_content,
)
from .errors import (
    CingalError,
    DuplicateEntry,
    SchemaViolation,
    UnknownEntryPoint,
)
from .guid import Guid, fresh_guid
from .security import EntityRecord, Right, Service, parse_rights
from .xmlcanon import element

ENTRY_INSTALLER = "uk.ac.stand.cingal.Installer"
ENTRY_RUNNER = "uk.ac.stand.cingal.Runner"
ENTRY_WIRER = "uk.ac.stand.cingal.Wirer"
ENTRY_ENTITY_MANAGER = "uk.ac.stand.cingal.EntityManager"

RUNNING = "RUNNING"
TERMINATED = "TERMINATED"


class ExecutorRegistry:
    """Maps entry-point names to behaviours callable as f(bundle, api)."""

    def __init__(self):
        self._behaviors: dict[str, object] = {}

    def register(self, entry: str, behavior) -> None:
        if entry in self._behaviors:
            raise DuplicateEntry(entry)
        self._behaviors[entry] = behavior

    def resolve(self, bundle: Bundle):
        behavior = self._behaviors.get(bundle.code.entry)
        if behavior is None:
            raise UnknownEntryPoint(
                f"{bundle.code.entry!r} (code type {bundle.code.code_type!r})")
        return behavior

    def entries(self) -> list[str]:
        return sorted(self._behaviors)


class MachineApi:
    """Mediated access to node services for one executing bundle.

    Every store/binder/VER call is capability-checked against the
    machine's signing entity before it acts.
    """

    def __init__(self, node, machine: "Machine"):
        self._node = node
        self._machine = machine

    @property
    def entity(self) -> str:
        return self._machine.entity

    @property
    def machine(self) -> "Machine":
        return self._machine

    @property
    def default(self) -> ChannelEndpoint | SocketEndpoint:
        return self._machine.default_endpoint

    def channel(self, name: str) -> NamedChannelEndpoint:
        return self._machine.cm.endpoint(name)

    # --- store -----------------------------------------------------------

    def store_put(self, b: Bundle | bytes) -> Guid:
        self._node.ver.require(self.entity, Service.STORE, Right.PUT)
        return self._node.store.put(b)

    def store_get(self, key: Guid) -> Bundle:
        self._node.ver.require(self.entity, Service.STORE, Right.GET)
        return self._node.store.get(key)

    # --- binders ---------------------------------------------------------

    def sbinder_put(self, name: str, key: Guid) -> None:
        self._node.ver.require(self.entity, Service.SBINDER, Right.PUT)
        self._node.sbinder.put(name, key)

    def sbinder_get(self, name: str) -> Guid:
        self._node.ver.require(self.entity, Service.SBINDER, Right.GET)
        return self._node.sbinder.get(name)

    def sbinder_remove(self, name: str) -> None:
        self._node.ver.require(self.entity, Service.SBINDER, Right.REMOVE)
        self._node.sbinder.remove(name)

    def pbinder_get(self, name: str):
        self._node.ver.require(self.entity, Service.PBINDER, Right.GET)
        return self._node.pbinder.get(name)

    # --- VER ---------------------------------------------------------------

    def ver_add(self, record) -> None:
        self._node.ver.add(record, caller=self.entity)

    def ver_remove(self, entity: str) -> None:
        self._node.ver.remove(entity, caller=self.entity)

    # --- execution ---------------------------------------------------------

    def spawn(self, b: Bundle) -> "Machine":
        """Fire a bundle locally; the caller needs FIRE:FIRE, the target
        bundle's own entity and signature set its capability context."""
        self._node.ver.require(self.entity, Service.FIRE, Right.FIRE)
        machine, _ = self._node.spawn_verified(b)
        return machine

    def fire_remote(self, address: str, doc: bytes) -> remote.FireHandle:
        return remote.fire(address, doc, self._node.max_frame,
                           self._node.connect_timeout)


class Machine:
    """One fired bundle plus its channels, connection manager and servers."""

    def __init__(self, node, bundle: Bundle, behavior,
                 default: SocketEndpoint | None = None):
        self.node = node
        self.bundle = bundle
        self.behavior = behavior
        self.entity = bundle.auth.entity
        self.machine_id = fresh_guid(node.digest)
        self.state = RUNNING
        self.cm = ConnectionManager(node.host, node.max_frame,
                                    node.connect_timeout)
        self.progenitor_endpoint, self.default_endpoint = (
            channel_pair(node.max_frame) if default is None
            else (None, default))
        self._control: Acceptor | None = None
        self._resource: Acceptor | None = None
        self.connector: Connector | None = None
        self._terminating = threading.Lock()  # held once terminate begins

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self._control = Acceptor(self.node.host, 0, self._serve_control)
        self._resource = Acceptor(self.node.host, 0, self._serve_resource)
        self.connector = Connector(self.node.host, self._control.port,
                                   self._resource.port)
        # bound before the behaviour can run, and so before it can end
        self.node.register_machine(self)
        threading.Thread(target=self._run_executor, daemon=True).start()

    def _run_executor(self) -> None:
        try:
            if self.progenitor_endpoint is None:  # fired over the fire port
                self.default_endpoint.write(remote.fire_result(self.connector))
            self.behavior(self.bundle, MachineApi(self.node, self))
        except CingalError:  # PeerClosed included
            pass
        finally:
            self.terminate()

    def terminate(self) -> None:
        if not self._terminating.acquire(blocking=False):
            return
        # also ends every other control connection and pending data link
        self._control.close()
        self._resource.close()
        self.cm.shutdown()
        self.default_endpoint.close()
        if self.progenitor_endpoint is not None:
            self.progenitor_endpoint.close()
        self.node.unregister_machine(self)
        self.state = TERMINATED

    # --- machine channel (control) ------------------------------------------

    def _serve_control(self, sock) -> None:
        while True:
            # an idle connection may not hold this thread past the deadline
            frame = recv_frame_within(sock, self.node.max_frame,
                                      self.node.connect_timeout)
            if frame is None:
                return
            response, terminate = self._handle_control(frame)
            try:
                send_frame(sock, response, self.node.max_frame)
            except OSError:
                return
            if terminate:
                self.terminate()
                return

    def _handle_control(self, frame: bytes) -> tuple[bytes, bool]:
        terminate = False
        try:
            req = xmlcanon.parse_document(frame)
            op = req.get("op", "")
            if op == "CREATE":
                port = self.cm.create(req.get("name", ""))
                resp = element("RESPONSE", {"status": "OK", "port": str(port)})
            elif op == "CONNECT":
                self.cm.connect(req.get("name", ""), req.get("host", ""),
                                int(req.get("port", "0")))
                resp = element("RESPONSE", {"status": "OK"})
            elif op == "DISCONNECT":
                self.cm.disconnect(req.get("name", ""))
                resp = element("RESPONSE", {"status": "OK"})
            elif op == "STATUS":
                children = [element("CHANNEL", {"name": n, "state": s})
                            for n, s in sorted(self.cm.states().items())]
                resp = element("RESPONSE", {"status": "OK"}, children=children)
            elif op == "READ_DEFAULT" and self.progenitor_endpoint is not None:
                timeout = float(req.get("timeout", "5"))
                msg = self.progenitor_endpoint.try_read(timeout)
                if msg is None:
                    resp = element("RESPONSE",
                                   {"status": "ERROR", "error": "Timeout"})
                else:
                    resp = element("RESPONSE", {"status": "OK"},
                                   text=base64.b64encode(msg).decode("ascii"))
            elif op == "WRITE_DEFAULT" and self.progenitor_endpoint is not None:
                payload = base64.b64decode((req.text or "").strip() or b"")
                self.progenitor_endpoint.write(payload)
                resp = element("RESPONSE", {"status": "OK"})
            elif op == "TERMINATE":
                resp = element("RESPONSE", {"status": "OK"})
                terminate = True
            else:
                resp = element("RESPONSE",
                               {"status": "ERROR", "error": "UnknownOp"},
                               text=op)
        except CingalError as exc:
            resp = element("RESPONSE", {"status": "ERROR", "error": exc.code},
                           text=str(exc))
        except (ValueError, OSError) as exc:
            resp = element("RESPONSE", {"status": "ERROR", "error": "Error"},
                           text=str(exc))
        response = xmlcanon.canonical_bytes(resp)
        self.cm.control_log.append(
            (frame.decode("utf-8", "replace"),
             response.decode("utf-8", "replace")))
        return response, terminate

    # --- resource port ---------------------------------------------------------

    def _serve_resource(self, sock) -> bool:
        # Data connections may also arrive here; the first frame names the
        # LISTENING channel the peer wants to attach to.
        frame = recv_frame_within(sock, self.node.max_frame,
                                  self.node.connect_timeout)
        if frame is None:
            return False
        return self.cm.attach_inbound(frame.decode("utf-8", "replace"), sock)


def spawn_machine(node, b: Bundle, default: SocketEndpoint | None = None
                  ) -> tuple[Machine, ChannelEndpoint | None]:
    """Create and start a machine for a bundle on a node.

    Returns the machine and the progenitor-facing default channel end,
    None when ``default``, the machine's end of its fire connection, is
    given. Entity authorization happens at the fire gate before this.
    """
    behavior = node.executors.resolve(b)
    machine = Machine(node, b, behavior, default)
    machine.start()
    return machine, machine.progenitor_endpoint


# --- built-in tools -----------------------------------------------------------

def _bundle_todolist(b: Bundle) -> ToDoList:
    return todolist_from_content(b.datum("ToDoList").content)


def _failed(task: Task, code: str) -> TaskResult:
    return TaskResult(task.guid, STATUS_FAILED, (("error", code),))


def _report(api: MachineApi, results) -> TaskReport:
    """Write the task report of ``results`` to the progenitor; return it."""
    report = TaskReport(tuple(results))
    api.default.write(report_to_bytes(report))
    return report


def _run_tasks(b: Bundle, api: MachineApi, task_type: str,
               perform) -> TaskReport:
    """Run each task of the bundle's to-do list through ``perform(task)``,
    which returns the task's info pairs; a task of another type, or one
    that raises, fails alone. Sends the report and returns it."""
    results = []
    for task in _bundle_todolist(b).tasks:
        try:
            if task.type != task_type:
                raise SchemaViolation(
                    f"{task_type} tool got a {task.type} task")
            results.append(TaskResult(task.guid, STATUS_OK, perform(task)))
        except CingalError as exc:
            results.append(_failed(task, exc.code))
    return _report(api, results)


def tool_install(b: Bundle, api: MachineApi) -> TaskReport:
    """Store each payload bundle named by an INSTALL task; report the keys."""
    def install(task: Task):
        payload_ref = task.datum_text("PayloadRef").strip()
        key = api.store_put(nested_bundle(b.datum(payload_ref)))
        return ((payload_ref, str(key)),)
    return _run_tasks(b, api, "INSTALL", install)


def tool_run(b: Bundle, api: MachineApi) -> TaskReport:
    """Fire each stored bundle named by a RUN task; report its connector."""
    def run(task: Task):
        key = Guid(task.datum_text("StoreGuid").strip())
        machine = api.spawn(api.store_get(key))
        return (("Connector", str(machine.connector)),)
    return _run_tasks(b, api, "RUN", run)


def _task_connector(task: Task, datum_id: str) -> Connector:
    el = xmlcanon.parse_document(task.datum_text(datum_id))
    return Connector.from_element(el)


def _listen(task: Task) -> Task:
    """CREATE the primary end; the task again, with its ListeningPort."""
    primary = _task_connector(task, "PrimaryConnector")
    resp = remote.control_request(
        primary.host, primary.machine_port, "CREATE",
        {"name": task.datum_text("PrimaryNamedChannel").strip()})
    return Task(task.guid, task.type,
                task.datums + (Datum("ListeningPort", resp.get("port", "0")),))


def _unlisten(task: Task) -> None:
    """DISCONNECT the primary end that _listen CREATEd, if it still can."""
    primary = _task_connector(task, "PrimaryConnector")
    try:
        remote.control_request(
            primary.host, primary.machine_port, "DISCONNECT",
            {"name": task.datum_text("PrimaryNamedChannel").strip()})
    except CingalError:
        pass


def _connect(task: Task) -> TaskResult:
    """CONNECT the secondary end to the task's ListeningPort."""
    primary = _task_connector(task, "PrimaryConnector")
    secondary = _task_connector(task, "SecondaryConnector")
    secondary_name = task.datum_text("SecondaryNamedChannel").strip()
    port = task.datum_text("ListeningPort").strip()
    remote.control_request(secondary.host, secondary.machine_port, "CONNECT",
                           {"name": secondary_name, "host": primary.host,
                            "port": port})
    return TaskResult(task.guid, STATUS_OK,
                      (("SecondaryNamedChannel", secondary_name),
                       ("Port", port)))


def _fire_offspring(b: Bundle, api: MachineApi,
                    tasks: list[Task]) -> dict[str, TaskResult]:
    """Fire one offspring at the secondary node to connect every task;
    its report gives each task's result."""
    # Code and authentication are copied verbatim from this wirer: the
    # signature covers only the CODE section, which is identical.
    offspring = Bundle(auth=b.auth, code=b.code, data=(
        Datum("ToDoList", todolist_content(ToDoList(tuple(tasks)))),))
    try:
        report = read_report(api.fire_remote(
            b.datum("SecondaryFireAddress").content.strip(),
            serialize_bundle(offspring)), 30.0)
    except CingalError as exc:
        return {t.guid: _failed(t, exc.code) for t in tasks}
    connected = {r.guid: r for r in report.results}
    return {t.guid: connected.get(t.guid, _failed(t, "ConnectFailed"))
            for t in tasks}


def tool_wire(b: Bundle, api: MachineApi) -> TaskReport:
    """Connect one named-channel pair per WIRE task.

    A task without a ListeningPort datum is wired from here: this wirer
    asks its primary machine to listen, then fires one offspring at the
    secondary node carrying all such tasks, each with its own
    ListeningPort datum, and DISCONNECTs the listening end of every task
    the offspring did not connect. A task with a ListeningPort datum is
    connected back to that port: that is the offspring's work.
    """
    results: dict[str, TaskResult] = {}
    listening: list[Task] = []
    tasks = _bundle_todolist(b).tasks
    for task in tasks:
        try:
            if task.type != "WIRE":
                raise SchemaViolation(f"wirer got a {task.type} task")
            if task.has_datum("ListeningPort"):
                results[task.guid] = _connect(task)
            else:
                listening.append(_listen(task))
        except CingalError as exc:
            results[task.guid] = _failed(task, exc.code)
    if listening:
        offspring = _fire_offspring(b, api, listening)
        for task in listening:
            if not offspring[task.guid].ok:
                _unlisten(task)
        results.update(offspring)
    return _report(api, (results[t.guid] for t in tasks))


def entity_bundle(action: str, entity: str, certificate: str = "",
                  rights: str = "") -> Bundle:
    """Unsigned EntityManager bundle that ADDs (with the certificate PEM and
    rights text) or REMOVEs ``entity``."""
    datums = [Datum("Action", action.upper()), Datum("EntityId", entity)]
    if action.upper() == "ADD":
        datums += [Datum("Certificate", certificate.strip()),
                   Datum("Rights", rights)]
    return Bundle(auth=Authentication("", ""),
                  code=CodeSection(ENTRY_ENTITY_MANAGER, "builtin"),
                  data=tuple(datums))


def tool_entity(b: Bundle, api: MachineApi) -> TaskReport:
    """Add or remove a VER entity; the admin counterpart of the deploy tools."""
    action = b.datum("Action").content.strip().upper()
    entity = b.datum("EntityId").content.strip()
    try:
        if action == "ADD":
            certificate = b.datum("Certificate").content.strip() + "\n"
            rights = parse_rights(b.datum("Rights").content.strip())
            api.ver_add(EntityRecord(entity, certificate, rights))
        elif action == "REMOVE":
            api.ver_remove(entity)
        else:
            raise SchemaViolation(f"unknown action {action!r}")
        result = TaskResult(action.lower(), STATUS_OK, (("EntityId", entity),))
    except CingalError as exc:
        result = TaskResult(action.lower(), STATUS_FAILED,
                            (("error", exc.code),))
    return _report(api, [result])


# --- demo components -----------------------------------------------------------

def _configured_channel(b: Bundle) -> str:
    return b.datum("ChannelName").content.strip() if b.has_datum(
        "ChannelName") else "Out"


def demo_echo(b: Bundle, api: MachineApi) -> None:
    """Echo every default-channel message back to the progenitor."""
    while True:
        api.default.write(api.default.read())


def demo_source(b: Bundle, api: MachineApi) -> None:
    """Forward default-channel messages onto the configured named channel."""
    out = api.channel(_configured_channel(b))
    while True:
        out.write(api.default.read())


def demo_sink(b: Bundle, api: MachineApi) -> None:
    """Forward named-channel messages onto the default channel."""
    source = api.channel(_configured_channel(b))
    while True:
        api.default.write(source.read())


def default_registry() -> ExecutorRegistry:
    registry = ExecutorRegistry()
    registry.register(ENTRY_INSTALLER, tool_install)
    registry.register(ENTRY_RUNNER, tool_run)
    registry.register(ENTRY_WIRER, tool_wire)
    registry.register(ENTRY_ENTITY_MANAGER, tool_entity)
    registry.register("demo.Echo", demo_echo)
    registry.register("demo.Source", demo_source)
    registry.register("demo.Sink", demo_sink)
    return registry
