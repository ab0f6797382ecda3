"""Client side of the two wire protocols.

Firing: open a TCP connection to a node's fire port, send one frame
holding the bundle document, read one FIRERESULT frame. The connection
then stays open as the default channel between progenitor and machine:
the machine reads and writes the same socket, with no relay in the node.

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
from .errors import ConnectFailed, MalformedDocument, PeerClosed, error_for_code
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


def fire(address: str, doc: bytes,
         max_frame: int = DEFAULT_MAX_FRAME,
         timeout: float = DEFAULT_CONNECT_TIMEOUT) -> FireHandle:
    """Submit a bundle document to a node's fire daemon."""
    host, port = parse_address(address)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectFailed(f"{address}: {exc}") from exc
    try:
        send_frame(sock, doc, max_frame)
        sock.settimeout(30.0)
        frame = recv_frame(sock, max_frame)
    except OSError as exc:
        close_socket(sock)
        raise ConnectFailed(f"{address}: {exc}") from exc
    if frame is None:
        close_socket(sock)
        raise PeerClosed("fire daemon closed without a result")
    root = xmlcanon.parse_document(frame)
    if root.tag != "FIRERESULT":
        close_socket(sock)
        raise MalformedDocument(f"expected FIRERESULT, got {root.tag}")
    if root.get("status") != "OK":
        close_socket(sock)
        raise error_for_code(root.get("error", "Error"), (root.text or "").strip())
    connector = Connector.from_element(root.find("CONNECTOR"))
    sock.settimeout(None)
    return FireHandle(connector, sock, max_frame)


def node_status(address: str, max_frame: int = DEFAULT_MAX_FRAME,
                timeout: float = DEFAULT_CONNECT_TIMEOUT):
    """Fetch a node's status document; returns the parsed STATUS element."""
    host, port = parse_address(address)
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            send_frame(sock, xmlcanon.canonical_bytes(element("STATUSREQUEST")),
                       max_frame)
            sock.settimeout(timeout)
            frame = recv_frame(sock, max_frame)
    except OSError as exc:
        raise ConnectFailed(f"{address}: {exc}") from exc
    if frame is None:
        raise PeerClosed("no status response")
    return xmlcanon.parse_document(frame)


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
    doc = xmlcanon.canonical_bytes(element("REQUEST", attrib, text=text))
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            send_frame(sock, doc, max_frame)
            sock.settimeout(max(timeout, 30.0))
            frame = recv_frame(sock, max_frame)
    except OSError as exc:
        raise ConnectFailed(f"{host}:{port}: {exc}") from exc
    if frame is None:
        raise PeerClosed("machine channel closed without a response")
    root = xmlcanon.parse_document(frame)
    if root.get("status") != "OK":
        raise error_for_code(root.get("error", "Error"), (root.text or "").strip())
    return root
