"""Client side of the two wire protocols, and the FIRERESULT document.

Firing: open a TCP connection to a node's fire port, send one frame
holding the bundle document, read one FIRERESULT frame. A refused fire
gets an ERROR FIRERESULT from the node's gate. An accepted one gets an
OK FIRERESULT from the fired machine itself, written on its own thread
before its behaviour runs, so it precedes every message of the machine.
The connection then stays open as the default channel between
progenitor and machine: the machine reads and writes the same socket,
with no relay in the node. ``fire_result`` builds both forms and
``fire`` parses them.

Machine-channel control: one REQUEST frame per exchange against a
machine's machine port, answered by one RESPONSE frame.
"""

from __future__ import annotations

import socket

from . import xmlcanon
from .channels import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_MAX_FRAME,
    Connector,
    SocketEndpoint,
    close_socket,
    recv_frame,
    send_frame,
)
from .errors import (CingalError, ConnectFailed, MalformedDocument,
                     PeerClosed, error_for_code)
from .xmlcanon import element


def parse_address(text: str) -> tuple[str, int]:
    host, port = text.rsplit(":", 1)
    return host, int(port)


class FireHandle(SocketEndpoint):
    """A fire connection's client end plus the fired machine's connector."""

    def __init__(self, connector: Connector, sock: socket.socket,
                 max_frame: int = DEFAULT_MAX_FRAME):
        super().__init__(sock, max_frame)
        self.connector = connector


def fire_result(connector: Connector | None = None,
                error: CingalError | None = None) -> bytes:
    """An ERROR FIRERESULT naming ``error``, else an OK one carrying the
    fired machine's connector."""
    if error is not None:
        root = element("FIRERESULT", {"status": "ERROR", "error": error.code},
                       text=str(error))
    else:
        root = element("FIRERESULT", {"status": "OK"},
                       children=[element("CONNECTOR", connector.attrib())])
    return xmlcanon.canonical_bytes(root)


def _exchange(address: str, doc: bytes, max_frame: int, timeout: float,
              reply_timeout: float):
    """Send ``doc`` as the first frame of a new connection and parse the
    frame that answers it; returns the still open socket and that root."""
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectFailed(f"{address}: {exc}") from exc
    try:
        send_frame(sock, doc, max_frame)
        sock.settimeout(reply_timeout)
        frame = recv_frame(sock, max_frame)
        if frame is None:
            raise PeerClosed(f"{address} closed without a reply")
        return sock, xmlcanon.parse_document(frame)
    except OSError as exc:
        close_socket(sock)
        raise ConnectFailed(f"{address}: {exc}") from exc
    except BaseException:
        close_socket(sock)
        raise


def _raise_unless_ok(root) -> None:
    if root.get("status") != "OK":
        raise error_for_code(root.get("error", "Error"),
                             (root.text or "").strip())


def fire(address: str, doc: bytes,
         max_frame: int = DEFAULT_MAX_FRAME,
         timeout: float = DEFAULT_CONNECT_TIMEOUT) -> FireHandle:
    """Submit a bundle document to a node's fire daemon."""
    sock, root = _exchange(address, doc, max_frame, timeout, 30.0)
    try:
        if root.tag != "FIRERESULT":
            raise MalformedDocument(f"expected FIRERESULT, got {root.tag}")
        _raise_unless_ok(root)
        return FireHandle(Connector.from_element(root.find("CONNECTOR")),
                          sock, max_frame)
    except BaseException:
        close_socket(sock)
        raise


def node_status(address: str, max_frame: int = DEFAULT_MAX_FRAME,
                timeout: float = DEFAULT_CONNECT_TIMEOUT):
    """Fetch a node's status document; returns the parsed STATUS element."""
    sock, root = _exchange(
        address, xmlcanon.canonical_bytes(element("STATUSREQUEST")),
        max_frame, timeout, timeout)
    close_socket(sock)
    return root


def control_request(host: str, port: int, op: str,
                    attrs: dict[str, str] | None = None,
                    text: str | None = None,
                    max_frame: int = DEFAULT_MAX_FRAME,
                    timeout: float = DEFAULT_CONNECT_TIMEOUT):
    """One REQUEST/RESPONSE exchange with a machine's connection manager.

    Returns the RESPONSE element on success; raises the error named by an
    ERROR response.
    """
    attrib = {"op": op}
    attrib.update(attrs or {})
    sock, root = _exchange(
        f"{host}:{port}",
        xmlcanon.canonical_bytes(element("REQUEST", attrib, text=text)),
        max_frame, timeout, max(timeout, 30.0))
    close_socket(sock)
    _raise_unless_ok(root)
    return root
