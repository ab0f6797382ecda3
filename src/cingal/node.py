"""The thin server: a node daemon hosting fire, store, binders and VER.

One daemon per (address, fire port). The fire daemon parses the first
frame of each connection once: a STATUSREQUEST returns a status
snapshot; any other document goes to the gate, ``ThinServer.fire``. A
refused fire gets an ERROR FIRERESULT from the gate. An accepted fire's
connection becomes the new machine's own default channel, and the
machine writes the OK FIRERESULT on it before its behaviour runs. Only
the store, the service binder (sbinder) and the VER persist under the
node's data directory and survive restarts; the process binder (pbinder)
names live machines and stays in memory.
"""

from __future__ import annotations

import base64
import errno
import fcntl
import os
import socket
import threading
from dataclasses import dataclass
from pathlib import Path

from . import remote, xmlcanon
from .bundle import Bundle, parse_bundle
from .channels import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_MAX_FRAME,
    Acceptor,
    SocketEndpoint,
    recv_frame_within,
    send_frame,
)
from .errors import (
    BadSignature,
    CingalError,
    CorruptState,
    EntityNotFound,
    MalformedDocument,
    NotBound,
    PortInUse,
    SchemaViolation,
    UnknownEntity,
)
from .guid import DIGEST_ALGORITHMS, Guid
from .machine import Machine, default_registry, spawn_machine
from .security import (
    ALL_RIGHTS,
    VER,
    EntityRecord,
    Right,
    Service,
    SignatureMemo,
    format_rights,
    parse_rights,
)
from .store import Binder, Store
from .xmlcanon import element

DATA_DIR_ENV = "CINGAL_DATA_DIR"


@dataclass
class NodeConfig:
    data_dir: str
    address: str = "127.0.0.1"
    fire_port: int = 0
    digest: str = "md5"
    admin_entity: str = ""
    admin_certificate: str = ""
    admin_rights: frozenset = ALL_RIGHTS
    max_frame: int = DEFAULT_MAX_FRAME
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT

    def __post_init__(self):
        if self.digest not in DIGEST_ALGORITHMS:
            raise SchemaViolation(f"unknown digest algorithm: {self.digest}")
        override = os.environ.get(DATA_DIR_ENV)
        if override:
            self.data_dir = override

    @classmethod
    def from_file(cls, path: str | Path) -> "NodeConfig":
        root = xmlcanon.parse_document(Path(path).read_bytes())
        if root.tag != "NODECONFIG":
            raise SchemaViolation(f"expected NODECONFIG, got {root.tag}")
        admin = root.find("ADMIN")
        cert_el = admin.find("CERTIFICATE") if admin is not None else None
        return cls(
            data_dir=root.get("dataDir", ""),
            address=root.get("address", "127.0.0.1"),
            fire_port=int(root.get("firePort", "0")),
            digest=root.get("digest", "md5"),
            admin_entity=admin.get("entity", "") if admin is not None else "",
            admin_certificate=((cert_el.text or "").strip() + "\n")
            if cert_el is not None else "",
            admin_rights=parse_rights(admin.get("rights"))
            if admin is not None and admin.get("rights") else ALL_RIGHTS,
            max_frame=int(root.get("maxFrame", str(DEFAULT_MAX_FRAME))),
            connect_timeout=float(root.get("connectTimeout",
                                           str(DEFAULT_CONNECT_TIMEOUT))),
        )

    def to_bytes(self) -> bytes:
        children = []
        if self.admin_entity:
            children.append(element(
                "ADMIN",
                {"entity": self.admin_entity,
                 "rights": format_rights(self.admin_rights)},
                children=[element("CERTIFICATE",
                                  text=self.admin_certificate)]))
        return xmlcanon.canonical_bytes(element("NODECONFIG", {
            "address": self.address,
            "firePort": str(self.fire_port),
            "dataDir": self.data_dir,
            "digest": self.digest,
            "maxFrame": str(self.max_frame),
            "connectTimeout": str(self.connect_timeout),
        }, children=children))


class ThinServer:
    """A running node; create with start() or use as a context manager."""

    def __init__(self, config: NodeConfig):
        self.config = config
        self.host = config.address
        self.digest = config.digest
        self.max_frame = config.max_frame
        self.connect_timeout = config.connect_timeout
        self.executors = default_registry()
        self._signatures = SignatureMemo()

        data_dir = Path(config.data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        self._lock_file = open(data_dir / "lock", "w")
        try:
            fcntl.flock(self._lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            self._lock_file.close()
            raise CorruptState(
                f"data dir {data_dir} is locked by another daemon") from exc

        try:
            self._open_state(data_dir)
        except BaseException:
            self.close()  # a node that did not start holds no lock
            raise

        self._machines: dict[str, Machine] = {}
        self._machines_lock = threading.Lock()
        self._acceptor: Acceptor | None = None
        self.fire_port: int | None = None
        self._stopped = False

    def _open_state(self, data_dir: Path) -> None:
        self._binder_path = data_dir / "binders.doc"
        self.sbinder = Binder(on_change=self._persist_sbinder)
        self.pbinder = Binder()
        try:
            self.store = Store(data_dir / "store", self.digest)
            self.ver = VER(data_dir / "ver.doc")
            self._load_binders()
        except (MalformedDocument, SchemaViolation) as exc:
            raise CorruptState(str(exc)) from exc
        config = self.config
        if config.admin_entity and config.admin_entity not in self.ver:
            self.ver.add(EntityRecord(config.admin_entity,
                                      config.admin_certificate,
                                      config.admin_rights))

    # --- lifecycle ---------------------------------------------------------

    @classmethod
    def start(cls, config: NodeConfig) -> "ThinServer":
        node = cls(config)
        node.serve()
        return node

    def serve(self) -> None:
        try:
            self._acceptor = Acceptor(self.config.address,
                                      self.config.fire_port, self._serve_fire)
        except OSError as exc:
            self.close()
            if exc.errno in (errno.EADDRINUSE, errno.EACCES):
                raise PortInUse(str(exc)) from exc
            raise
        self.fire_port = self._acceptor.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.fire_port}"

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._acceptor is not None:
            self._acceptor.close()  # a fired machine's connection ends with it
        for m in self.machines():
            m.terminate()
        self.close()

    def close(self) -> None:
        try:
            fcntl.flock(self._lock_file, fcntl.LOCK_UN)
        except (OSError, ValueError):
            pass
        try:
            self._lock_file.close()
        except OSError:
            pass

    def __enter__(self) -> "ThinServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # --- machine registry ---------------------------------------------------

    def register_machine(self, m: Machine) -> None:
        with self._machines_lock:
            self._machines[m.machine_id.hex] = m
            self.pbinder.put(m.machine_id.hex, str(m.connector))

    def unregister_machine(self, m: Machine) -> None:
        with self._machines_lock:
            self._machines.pop(m.machine_id.hex, None)
            try:
                self.pbinder.remove(m.machine_id.hex)
            except NotBound:
                pass

    def machines(self) -> list[Machine]:
        with self._machines_lock:
            return list(self._machines.values())

    # --- firing ---------------------------------------------------------------

    def fire(self, doc, default: SocketEndpoint | None = None):
        """Authenticate and execute a bundle document, given as bytes or
        as its parsed root element.

        Gate order: parse, VER lookup, signature check, FIRE:FIRE
        capability. On any failure no machine is created and no node
        state changes. Returns (machine, progenitor default endpoint), or
        (machine, None) when ``default`` is the machine's fire connection,
        on which the machine then writes its OK FIRERESULT.
        """
        b = parse_bundle(doc)
        self._authenticate(b)
        self.ver.require(b.auth.entity, Service.FIRE, Right.FIRE)
        return spawn_machine(self, b, default)

    def spawn_verified(self, b: Bundle):
        """Spawn a bundle fired locally by an already-authorized machine.

        The bundle's own entity must still be known and its signature
        valid, since that entity becomes the new machine's capability
        context.
        """
        self._authenticate(b)
        return spawn_machine(self, b)

    def _authenticate(self, b: Bundle) -> None:
        # VER lookup first: a removed or re-keyed entity never hits the memo
        try:
            record = self.ver.lookup(b.auth.entity)
        except EntityNotFound:
            raise UnknownEntity(b.auth.entity) from None
        if not self._signatures.verify(b, record.certificate):
            raise BadSignature(f"signature of {b.auth.entity} does not verify")

    # --- fire daemon -------------------------------------------------------------

    def _serve_fire(self, sock: socket.socket) -> bool:
        # an idle connection may not hold this thread past the deadline
        frame = recv_frame_within(sock, self.max_frame, self.connect_timeout)
        if frame is None:
            return False
        try:
            root = xmlcanon.parse_document(frame)
            if root.tag != "STATUSREQUEST":
                self.fire(root, SocketEndpoint(sock, self.max_frame))
                return True  # the socket is the machine's now
            reply = self.status_bytes()
        except CingalError as exc:
            reply = remote.fire_result(error=exc)
        try:
            send_frame(sock, reply, self.max_frame)
        except OSError:
            pass
        return False

    # --- status -----------------------------------------------------------------

    def status_element(self):
        machines = self.machines()
        machine_els = []
        for m in sorted(machines, key=lambda m: m.machine_id.hex):
            children = [element("CONNECTOR", m.connector.attrib())]
            children += [element("CHANNEL", {"name": n, "state": s})
                         for n, s in sorted(m.cm.states().items())]
            machine_els.append(element(
                "MACHINE",
                {"id": m.machine_id.hex, "entity": m.entity, "state": m.state},
                children=children))
        binder_els = [element("BINDING", {"name": n}) for n in
                      self.sbinder.names()]
        return element("STATUS", {"machines": str(len(machines)),
                                  "storeSize": str(len(self.store))},
                       children=machine_els + [
                           element("SBINDER", children=binder_els)])

    def status_bytes(self) -> bytes:
        return xmlcanon.canonical_bytes(self.status_element())

    # --- binder persistence --------------------------------------------------------

    def _persist_sbinder(self, bindings: dict) -> None:
        sbinder = element("BINDER", {"name": "sbinder"}, children=[
            element("BINDING", {"name": n, "value": str(v)})
            for n, v in sorted(bindings.items())])
        self._binder_path.write_bytes(
            xmlcanon.canonical_bytes(element("BINDERS", children=[sbinder])))

    def _load_binders(self) -> None:
        if not self._binder_path.exists():
            return
        root = xmlcanon.parse_document(self._binder_path.read_bytes())
        for binder_el in root.findall("BINDER"):
            # pbinder entries name machines, which never survive a restart
            if binder_el.get("name") != "sbinder":
                continue
            for binding in binder_el.findall("BINDING"):
                self.sbinder.put(binding.get("name", ""),
                                 Guid(binding.get("value", "")))


def write_default(connector, payload: bytes,
                  max_frame: int = DEFAULT_MAX_FRAME) -> None:
    """Inject a message into a machine's default channel via its machine
    channel (WRITE_DEFAULT control op)."""
    remote.control_request(connector.host, connector.machine_port,
                           "WRITE_DEFAULT",
                           text=base64.b64encode(payload).decode("ascii"),
                           max_frame=max_frame)


def read_default(connector, timeout: float = 5.0,
                 max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Pop one message from a machine's outbound default channel."""
    resp = remote.control_request(connector.host, connector.machine_port,
                                  "READ_DEFAULT",
                                  {"timeout": str(timeout)},
                                  max_frame=max_frame,
                                  timeout=timeout + 5.0)
    return base64.b64decode((resp.text or "").strip() or "")
