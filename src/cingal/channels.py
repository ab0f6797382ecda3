"""Asynchronous message channels and the named-channel connection manager.

All inter-node traffic uses one wire discipline: a 4-byte big-endian
unsigned length prefix followed by the payload bytes. Named channels are
point-to-point TCP links that third parties may connect, disconnect and
reconnect while the owning bundle blocks on read/write; reads and writes
on an unwired name simply wait for wiring to complete.
A fired machine's default channel is its fire connection, a
``SocketEndpoint`` at each end; a local progenitor gets a ``channel_pair``.

Teardown: every socket is closed through ``close_socket``, so
``disconnect`` sends a FIN and the peer's end of the link ends too. A
name whose peer dropped the link goes to UNBOUND, and one DISCONNECT on
that name still answers OK, so a third party can unwire both ends in any
order; a name never wired, or already disconnected, raises NameNotBound.

Listening: every listening socket of the process (fire, machine, resource
and LISTENING channel ports) is in one selector, served by one accept
thread that only accepts and hands each connection on. The thread starts
with the first listener and ends when ``unlisten`` removes the last one.
"""

from __future__ import annotations

import functools
import queue
import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass

from .errors import (
    ConnectFailed,
    FrameTooLarge,
    NameAlreadyBound,
    NameNotBound,
    PeerClosed,
    SchemaViolation,
)

DEFAULT_MAX_FRAME = 16 * 1024 * 1024
DEFAULT_CONNECT_TIMEOUT = 5.0
CONTROL_LOG_SIZE = 64  # control exchanges kept per machine, newest last

# --- framing ------------------------------------------------------------

def send_frame(sock: socket.socket, payload: bytes,
               max_frame: int = DEFAULT_MAX_FRAME) -> None:
    if len(payload) > max_frame:
        raise FrameTooLarge(f"{len(payload)} > {max_frame}")
    sock.sendall(struct.pack("!I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int,
                deadline: float | None = None) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("frame deadline passed")
            sock.settimeout(left)
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME,
               deadline: float | None = None) -> bytes | None:
    """Next frame, or None on clean EOF; TimeoutError once the
    ``time.monotonic()`` ``deadline``, if given, passes."""
    header = _recv_exact(sock, 4, deadline)
    if header is None:
        return None
    (length,) = struct.unpack("!I", header)
    if length > max_frame:
        raise FrameTooLarge(f"{length} > {max_frame}")
    if length == 0:
        return b""
    return _recv_exact(sock, length, deadline)


def recv_frame_within(sock: socket.socket, max_frame: int,
                      timeout: float) -> bytes | None:
    """Next frame from an untrusted peer, or None at EOF, on a socket
    error, on an oversize frame or when the whole frame has not arrived
    within ``timeout`` seconds, however the peer paces its bytes."""
    try:
        return recv_frame(sock, max_frame, time.monotonic() + timeout)
    except (OSError, FrameTooLarge):  # TimeoutError included
        return None


def close_socket(sock: socket.socket | None) -> None:
    """Close a socket and wake any thread blocked on it.

    A bare close() neither interrupts an accept() or recv() blocked in
    another thread nor sends a FIN while that thread holds the socket, so
    the port stays open and the peer never sees the link end; shutdown()
    first does both.
    """
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


# the accept loop's selector and the write end of its wake socket pair
_accept_lock = threading.Lock()
_accepting: tuple[selectors.BaseSelector, socket.socket] | None = None


def listen(host: str, port: int, on_accept, backlog: int = 64
           ) -> socket.socket:
    """A socket listening on (host, port), served by the accept loop:
    ``on_accept(listener, sock)`` runs on the loop's thread for each new
    connection, so it must hand the socket on without blocking."""
    global _accepting
    listener = socket.create_server((host, port), backlog=backlog)
    listener.setblocking(False)
    with _accept_lock:
        if _accepting is None:
            selector, (wake_r, wake_w) = (selectors.DefaultSelector(),
                                          socket.socketpair())
            selector.register(wake_r, selectors.EVENT_READ)
            _accepting = selector, wake_w
            threading.Thread(target=_accept_loop, args=(selector, wake_r),
                             daemon=True).start()
        _accepting[0].register(listener, selectors.EVENT_READ, on_accept)
    return listener


def unlisten(listener: socket.socket) -> None:
    """Take a listener off the accept loop and close it; call once."""
    global _accepting
    with _accept_lock:
        selector, wake_w = _accepting
        selector.unregister(listener)
        if len(selector.get_map()) == 1:  # only the wake socket is left
            close_socket(wake_w)
            _accepting = None
    close_socket(listener)


def _accept_loop(selector: selectors.BaseSelector,
                 wake_r: socket.socket) -> None:
    try:
        while True:
            for key, _ in selector.select():
                if key.fileobj is wake_r:
                    return  # the last listener is gone
                try:
                    sock, _ = key.fileobj.accept()
                except OSError:
                    continue  # nothing pending, or the listener closed
                try:
                    key.data(key.fileobj, sock)
                except (OSError, RuntimeError):  # e.g. no thread to serve it
                    close_socket(sock)
    finally:
        selector.close()
        close_socket(wake_r)


class Acceptor:
    """Listens on (host, port) and serves each connection on its own
    thread. It starts no accept thread: the process's one accept thread
    runs while any listener is open and ends with the last one.

    ``handler(sock)`` returns True when it has handed the socket on (to a
    named channel); otherwise the socket is closed when it returns.
    close() shuts the listener and every connection still being served.
    """

    def __init__(self, host: str, port: int, handler):
        self._handler = handler
        self._serving: set[socket.socket] | None = set()  # None once closed
        self._lock = threading.Lock()
        self._listener = listen(host, port, self._accepted)
        self.port = self._listener.getsockname()[1]

    def _accepted(self, listener: socket.socket, sock: socket.socket) -> None:
        with self._lock:
            if self._serving is None:
                close_socket(sock)
                return
            self._serving.add(sock)
        threading.Thread(target=self._serve, args=(sock,),
                         daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        kept = False
        try:
            kept = self._handler(sock)
        finally:
            with self._lock:
                if self._serving is not None:
                    self._serving.discard(sock)
            if not kept:
                close_socket(sock)

    def close(self) -> None:
        with self._lock:
            if self._serving is None:
                return
            serving, self._serving = self._serving, None
        unlisten(self._listener)
        for sock in serving:
            close_socket(sock)


# --- connectors ----------------------------------------------------------

@dataclass(frozen=True)
class Connector:
    """Location of a running machine: host plus its two service ports."""

    host: str
    machine_port: int
    resource_port: int

    def __post_init__(self):
        for port in (self.machine_port, self.resource_port):
            if not 0 < port < 65536:
                raise SchemaViolation(f"port out of range: {port}")

    def __str__(self) -> str:
        return f"{self.host}:{self.machine_port}:{self.resource_port}"

    @classmethod
    def parse(cls, text: str) -> "Connector":
        host, mport, rport = text.rsplit(":", 2)
        return cls(host, int(mport), int(rport))

    def attrib(self) -> dict[str, str]:
        return {"host": self.host, "machinePort": str(self.machine_port),
                "resourcePort": str(self.resource_port)}

    @classmethod
    def from_element(cls, el) -> "Connector":
        if el.tag != "CONNECTOR":
            raise SchemaViolation(f"expected CONNECTOR, got {el.tag}")
        return cls(el.get("host", ""), int(el.get("machinePort", "0")),
                   int(el.get("resourcePort", "0")))


# --- default channels ----------------------------------------------------

_CLOSED = object()  # queued behind the last message when a channel closes


def _take(inbox: queue.Queue, timeout: float | None = None) -> bytes | None:
    """Next message, or None after ``timeout``; PeerClosed at the close
    sentinel, which stays queued for the next reader."""
    try:
        msg = inbox.get(timeout=timeout)
    except queue.Empty:
        return None
    if msg is _CLOSED:
        inbox.put(_CLOSED)
        raise PeerClosed("channel closed")
    return msg


class ChannelEndpoint:
    """One end of a FIFO byte-message channel."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self._inbox: queue.Queue = queue.Queue()
        self._peer: "ChannelEndpoint | None" = None
        self._closed = False
        self._max_frame = max_frame

    def write(self, payload: bytes) -> None:
        if len(payload) > self._max_frame:
            raise FrameTooLarge(f"{len(payload)} > {self._max_frame}")
        peer = self._peer
        if peer is None or peer._closed:
            raise PeerClosed("peer endpoint closed")
        peer._inbox.put(payload)

    def read(self) -> bytes:
        """Next message in FIFO order; blocks while the channel is open."""
        return _take(self._inbox)

    def try_read(self, timeout: float) -> bytes | None:
        return _take(self._inbox, timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # wake readers of both ends once they drain what came before
        self._inbox.put(_CLOSED)
        if self._peer is not None:
            self._peer._inbox.put(_CLOSED)


def channel_pair(max_frame: int = DEFAULT_MAX_FRAME) -> tuple[ChannelEndpoint, ChannelEndpoint]:
    a, b = ChannelEndpoint(max_frame), ChannelEndpoint(max_frame)
    a._peer, b._peer = b, a
    return a, b


class SocketEndpoint:
    """One end of a default channel carried by a TCP connection, which it
    puts in blocking mode; concurrent writes are serialised."""

    def __init__(self, sock: socket.socket,
                 max_frame: int = DEFAULT_MAX_FRAME):
        sock.settimeout(None)
        self._sock = sock
        self._max_frame = max_frame
        self._send_lock = threading.Lock()

    def write(self, payload: bytes) -> None:
        with self._send_lock:
            try:
                send_frame(self._sock, payload, self._max_frame)
            except OSError as exc:
                raise PeerClosed(str(exc)) from exc

    def read(self, timeout: float | None = None) -> bytes:
        """Next frame; PeerClosed at EOF, on error or after ``timeout``."""
        try:
            self._sock.settimeout(timeout)
            frame = recv_frame(self._sock, self._max_frame)
        except OSError as exc:  # socket.timeout included
            raise PeerClosed(str(exc)) from exc
        if frame is None:
            raise PeerClosed("default channel closed")
        return frame

    def close(self) -> None:
        # not under the send lock, which a writer blocked in sendall holds
        close_socket(self._sock)


# --- named channels -------------------------------------------------------

UNBOUND = "UNBOUND"
LISTENING = "LISTENING"
CONNECTED = "CONNECTED"


class _NamedChannel:
    def __init__(self, name: str, max_frame: int):
        self.name = name
        self.state = UNBOUND
        self.dropped = False  # the peer ended the link; one DISCONNECT is OK
        self.sock: socket.socket | None = None
        self.listener: socket.socket | None = None
        self.inbox: queue.Queue = queue.Queue()
        self.send_lock = threading.Lock()
        self.max_frame = max_frame


class NamedChannelEndpoint:
    """Bundle-facing read/write handle for one named channel."""

    def __init__(self, manager: "ConnectionManager", name: str):
        self._manager = manager
        self._name = name

    def write(self, payload: bytes) -> None:
        self._manager.write(self._name, payload)

    def read(self) -> bytes:
        return self._manager.read(self._name)


class ConnectionManager:
    """Per-machine table of named channels and the wiring operations.

    Thread-safe: control requests arriving on the machine channel mutate
    the table while the bundle blocks on read/write. ``control_log``
    records the newest CONTROL_LOG_SIZE (request, response) document
    pairs for inspection.
    """

    def __init__(self, host: str = "127.0.0.1",
                 max_frame: int = DEFAULT_MAX_FRAME,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT):
        self.host = host
        self._channels: dict[str, _NamedChannel] = {}
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)  # wakes writers
        self._max_frame = max_frame
        self._connect_timeout = connect_timeout
        self._shutdown = False
        self.control_log: deque[tuple[str, str]] = deque(
            maxlen=CONTROL_LOG_SIZE)

    def _channel(self, name: str) -> _NamedChannel:
        if not name:
            raise SchemaViolation("channel names must be non-empty")
        with self._lock:
            ch = self._channels.get(name)
            if ch is None:
                ch = _NamedChannel(name, self._max_frame)
                self._channels[name] = ch
                if self._shutdown:
                    ch.inbox.put(_CLOSED)
            return ch

    def endpoint(self, name: str) -> NamedChannelEndpoint:
        self._channel(name)
        return NamedChannelEndpoint(self, name)

    def states(self) -> dict[str, str]:
        with self._lock:
            return {name: ch.state for name, ch in self._channels.items()}

    def state(self, name: str) -> str:
        with self._lock:
            ch = self._channels.get(name)
            return ch.state if ch is not None else UNBOUND

    # --- wiring operations ----------------------------------------------

    def create(self, name: str) -> int:
        """Listen for one inbound connection for ``name``; returns the port."""
        ch = self._channel(name)
        with self._lock:
            if ch.state != UNBOUND:
                raise NameAlreadyBound(f"{name} is {ch.state}")
            ch.listener = listen(self.host, 0, functools.partial(
                self._accepted, ch), backlog=1)
            ch.state = LISTENING
            return ch.listener.getsockname()[1]

    def _accepted(self, ch: _NamedChannel, listener: socket.socket,
                  sock: socket.socket) -> None:
        with self._lock:
            if (ch.listener is not listener
                    or not self.attach_inbound(ch.name, sock)):
                close_socket(sock)  # disconnected or attached meanwhile

    def connect(self, name: str, host: str, port: int) -> None:
        """Actively connect ``name`` to a peer's waiting listener."""
        ch = self._channel(name)
        with self._lock:
            if ch.state != UNBOUND:
                raise NameAlreadyBound(f"{name} is {ch.state}")
        try:
            sock = socket.create_connection((host, port),
                                            timeout=self._connect_timeout)
        except OSError as exc:
            raise ConnectFailed(f"{host}:{port}: {exc}") from exc
        with self._lock:
            if ch.state != UNBOUND:
                close_socket(sock)
                raise NameAlreadyBound(f"{name} is {ch.state}")
            self._attach(ch, sock)

    def _attach(self, ch: _NamedChannel, sock: socket.socket) -> None:
        # caller holds self._lock
        sock.settimeout(None)
        ch.sock = sock
        ch.state = CONNECTED
        self._changed.notify_all()
        threading.Thread(target=self._pump_in, args=(ch, sock),
                         daemon=True).start()

    def attach_inbound(self, name: str, sock: socket.socket) -> bool:
        """Attach a pre-accepted socket to a LISTENING name (resource port
        path); returns False if the name is not awaiting a connection."""
        with self._lock:
            ch = self._channels.get(name)
            if ch is None or ch.state != LISTENING:
                return False
            unlisten(ch.listener)
            ch.listener = None
            self._attach(ch, sock)
            return True

    def _pump_in(self, ch: _NamedChannel, sock: socket.socket) -> None:
        while True:
            try:
                frame = recv_frame(sock, ch.max_frame)
            except (OSError, FrameTooLarge):
                frame = None
            if frame is None:
                break
            ch.inbox.put(frame)
        # peer went away: drop to UNBOUND unless a rewire already replaced us
        with self._lock:
            if ch.sock is sock:
                ch.sock, ch.state, ch.dropped = None, UNBOUND, True
        close_socket(sock)

    def disconnect(self, name: str) -> None:
        with self._lock:
            ch = self._channels.get(name)
            if ch is None or (ch.state == UNBOUND and not ch.dropped):
                raise NameNotBound(name)
            ch.state, ch.dropped = UNBOUND, False
            sock, ch.sock = ch.sock, None
            listener, ch.listener = ch.listener, None
        if listener is not None:
            unlisten(listener)
        close_socket(sock)

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True
            self._changed.notify_all()
            for name, ch in self._channels.items():
                ch.inbox.put(_CLOSED)
                if ch.state != UNBOUND:
                    self.disconnect(name)

    # --- bundle-side read/write ------------------------------------------

    def write(self, name: str, payload: bytes) -> None:
        """Blocks until the name is wired, then sends; survives rewiring."""
        if len(payload) > self._max_frame:
            raise FrameTooLarge(f"{len(payload)} > {self._max_frame}")
        ch = self._channel(name)
        failed = None  # a socket that failed mid-send; wait for a new one
        while True:
            with self._changed:
                self._changed.wait_for(lambda: self._shutdown or (
                    ch.state == CONNECTED and ch.sock is not failed))
                if self._shutdown:
                    raise PeerClosed("connection manager shut down")
                sock = ch.sock
            with ch.send_lock:
                try:
                    send_frame(sock, payload, ch.max_frame)
                    return
                except OSError:
                    failed = sock

    def read(self, name: str) -> bytes:
        """Blocks until a message arrives; disconnection keeps it waiting,
        shutdown ends it with PeerClosed."""
        return _take(self._channel(name).inbox)
