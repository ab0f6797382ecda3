import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cingal import channels
from cingal.channels import (
    CONNECTED,
    LISTENING,
    UNBOUND,
    ChannelEndpoint,
    ConnectionManager,
    Connector,
    channel_pair,
    recv_frame,
    recv_frame_within,
    send_frame,
)
from cingal.errors import (
    ConnectFailed,
    FrameTooLarge,
    NameAlreadyBound,
    NameNotBound,
    PeerClosed,
    SchemaViolation,
)
from conftest import threads_back_to, wait_for


def socket_pair():
    return socket.socketpair()


class TestFraming:
    def test_round_trip(self):
        a, b = socket_pair()
        send_frame(a, b"hello")
        assert recv_frame(b) == b"hello"
        a.close(), b.close()

    def test_empty_frame(self):
        a, b = socket_pair()
        send_frame(a, b"")
        assert recv_frame(b) == b""
        a.close(), b.close()

    def test_eof_returns_none(self):
        a, b = socket_pair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_oversize_send(self):
        a, b = socket_pair()
        with pytest.raises(FrameTooLarge):
            send_frame(a, b"x" * 100, max_frame=10)
        a.close(), b.close()

    def test_oversize_receive(self):
        a, b = socket_pair()
        send_frame(a, b"x" * 100)
        with pytest.raises(FrameTooLarge):
            recv_frame(b, max_frame=10)
        a.close(), b.close()

    def test_within_deadline(self):
        a, b = socket_pair()
        send_frame(a, b"in time")
        assert recv_frame_within(b, 1024, 1.0) == b"in time"
        a.close(), b.close()

    def test_within_gives_none_at_deadline_eof_and_oversize(self):
        a, b = socket_pair()
        started = time.monotonic()
        assert recv_frame_within(b, 1024, 0.2) is None  # silent peer
        assert time.monotonic() - started < 2.0
        send_frame(a, b"x" * 100)
        assert recv_frame_within(b, 10, 1.0) is None  # oversize
        a.close()
        c, d = socket_pair()
        c.close()
        assert recv_frame_within(d, 1024, 1.0) is None  # EOF
        b.close(), d.close()

    def test_within_bounds_a_dribbling_peer(self):
        a, b = socket_pair()
        stop = threading.Event()

        def dribble():  # one byte of a 1000-byte frame every 0.1 s
            try:
                for byte in struct.pack("!I", 1000) + b"x" * 1000:
                    if stop.wait(0.1):
                        return
                    a.send(bytes([byte]))
            except OSError:
                pass  # closed by the test

        threading.Thread(target=dribble, daemon=True).start()
        try:
            started = time.monotonic()
            assert recv_frame_within(b, 2048, 0.5) is None
            assert time.monotonic() - started < 0.5 + 0.5
        finally:
            stop.set()
            a.close(), b.close()

    def test_preserves_order_and_boundaries(self):
        a, b = socket_pair()
        messages = [bytes([i]) * (i + 1) for i in range(20)]
        for m in messages:
            send_frame(a, m)
        assert [recv_frame(b) for _ in messages] == messages
        a.close(), b.close()


class TestChannelPair:
    def test_fifo(self):
        a, b = channel_pair()
        for i in range(10):
            a.write(b"m%d" % i)
        assert [b.read() for _ in range(10)] == [b"m%d" % i for i in range(10)]

    def test_bidirectional(self):
        a, b = channel_pair()
        a.write(b"ping")
        assert b.read() == b"ping"
        b.write(b"pong")
        assert a.read() == b"pong"

    def test_read_blocks_until_write(self):
        a, b = channel_pair()
        got = []

        def reader():
            got.append(b.read())

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        assert not got
        a.write(b"late")
        t.join(timeout=2)
        assert got == [b"late"]

    def test_close_drains_then_raises(self):
        a, b = channel_pair()
        a.write(b"last")
        a.close()
        assert b.read() == b"last"
        with pytest.raises(PeerClosed):
            b.read()

    def test_write_to_closed_peer(self):
        a, b = channel_pair()
        b.close()
        with pytest.raises(PeerClosed):
            a.write(b"x")

    def test_try_read_timeout(self):
        a, b = channel_pair()
        assert b.try_read(timeout=0.05) is None
        a.write(b"v")
        assert b.try_read(timeout=1.0) == b"v"


class TestConnector:
    def test_parse_round_trip(self):
        c = Connector.parse("129.127.8.34:30112:29000")
        assert c == Connector("129.127.8.34", 30112, 29000)
        assert str(c) == "129.127.8.34:30112:29000"

    def test_attrib(self):
        c = Connector("129.127.8.35", 47121, 26083)
        assert c.attrib() == {"host": "129.127.8.35",
                              "machinePort": "47121",
                              "resourcePort": "26083"}

    @pytest.mark.parametrize("mp,rp", [(0, 1), (1, 0), (70000, 1)])
    def test_port_range(self, mp, rp):
        with pytest.raises(SchemaViolation):
            Connector("h", mp, rp)


@pytest.fixture
def managers():
    a, b = ConnectionManager(), ConnectionManager()
    yield a, b
    a.shutdown()
    b.shutdown()


def wire(listener_mgr, listen_name, connector_mgr, connect_name):
    port = listener_mgr.create(listen_name)
    connector_mgr.connect(connect_name, "127.0.0.1", port)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if (listener_mgr.state(listen_name) == CONNECTED
                and connector_mgr.state(connect_name) == CONNECTED):
            return
        time.sleep(0.01)
    raise AssertionError("wiring did not complete")


class TestConnectionManager:
    def test_state_machine(self, managers):
        a, b = managers
        assert a.state("out") == UNBOUND
        port = a.create("out")
        assert a.state("out") == LISTENING
        b.connect("in", "127.0.0.1", port)
        deadline = time.monotonic() + 5
        while a.state("out") != CONNECTED and time.monotonic() < deadline:
            time.sleep(0.01)
        assert a.state("out") == CONNECTED
        assert b.state("in") == CONNECTED
        a.disconnect("out")
        assert a.state("out") == UNBOUND

    def test_message_flow(self, managers):
        a, b = managers
        wire(a, "out", b, "in")
        a.write("out", b"payload-1")
        a.write("out", b"payload-2")
        assert b.read("in") == b"payload-1"
        assert b.read("in") == b"payload-2"
        b.write("in", b"reply")
        assert a.read("out") == b"reply"

    def test_create_twice(self, managers):
        a, _ = managers
        a.create("x")
        with pytest.raises(NameAlreadyBound):
            a.create("x")

    def test_connect_while_bound(self, managers):
        a, b = managers
        wire(a, "out", b, "in")
        with pytest.raises(NameAlreadyBound):
            b.connect("in", "127.0.0.1", 1)

    def test_connect_refused(self, managers):
        a, _ = managers
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        port = dead.getsockname()[1]
        dead.close()
        with pytest.raises(ConnectFailed):
            a.connect("x", "127.0.0.1", port)
        assert a.state("x") == UNBOUND

    def test_disconnect_frees_listening_port(self, managers):
        a, b = managers
        port = a.create("out")
        a.disconnect("out")
        with pytest.raises(ConnectFailed):
            b.connect("in", "127.0.0.1", port)
        assert b.state("in") == UNBOUND

    def test_attach_inbound_frees_listening_port(self, managers):
        a, b = managers
        port = a.create("out")
        s1, s2 = socket_pair()
        try:
            assert a.attach_inbound("out", s1)
            with pytest.raises(ConnectFailed):
                b.connect("in", "127.0.0.1", port)
        finally:
            s2.close()

    def test_disconnect_unbound(self, managers):
        a, b = managers
        wire(a, "out", b, "in")
        b.disconnect("in")
        assert wait_for(lambda: a.state("out") == UNBOUND)
        # a never-wired name raises at once; one whose peer dropped the
        # link answers one DISCONNECT, so both ends unwire in any order
        for name, answered in (("never", 0), ("out", 1)):
            for _ in range(answered):
                a.disconnect(name)
            with pytest.raises(NameNotBound):
                a.disconnect(name)

    def test_disconnect_reaches_peer(self, managers):
        a, b = managers
        before = threading.active_count()
        wire(a, "out", b, "in")
        a.disconnect("out")
        assert wait_for(lambda: b.state("in") == UNBOUND)
        assert threads_back_to(before), "channel pump threads still live"

    def test_empty_name(self, managers):
        a, _ = managers
        with pytest.raises(SchemaViolation):
            a.create("")

    def test_write_blocks_until_wired(self, managers):
        a, b = managers
        done = threading.Event()

        def writer():
            a.write("out", b"deferred")
            done.set()

        threading.Thread(target=writer, daemon=True).start()
        time.sleep(0.1)
        assert not done.is_set()  # still unwired, still blocked
        wire(a, "out", b, "in")
        assert done.wait(timeout=5)
        assert b.read("in") == b"deferred"

    def test_inbox_survives_disconnect(self, managers):
        a, b = managers
        wire(a, "out", b, "in")
        a.write("out", b"before")
        deadline = time.monotonic() + 5
        while b._channels["in"].inbox.empty() and time.monotonic() < deadline:
            time.sleep(0.01)
        a.disconnect("out")
        assert b.read("in") == b"before"

    def test_rewire_to_new_peer(self, managers):
        a, b = managers
        c = ConnectionManager()
        try:
            wire(a, "out", b, "in")
            a.write("out", b"to-b")
            assert b.read("in") == b"to-b"
            a.disconnect("out")
            b.disconnect("in")
            wire(c, "in2", a, "out")
            a.write("out", b"to-c")
            assert c.read("in2") == b"to-c"
        finally:
            c.shutdown()

    def test_read_blocks_across_rewire(self, managers):
        a, b = managers
        got = []

        def reader():
            got.append(b.read("in"))

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        wire(a, "out", b, "in")
        a.disconnect("out")
        b.disconnect("in")
        time.sleep(0.1)
        assert not got  # reader still parked on the unwired name
        wire(a, "out", b, "in")
        a.write("out", b"second-life")
        t.join(timeout=5)
        assert got == [b"second-life"]

    def test_shutdown_releases_readers(self, managers):
        a, _ = managers
        errors = []

        def reader():
            try:
                a.read("never")
            except PeerClosed as exc:
                errors.append(exc)

        t = threading.Thread(target=reader)
        t.start()
        a.shutdown()
        t.join(timeout=5)
        assert len(errors) == 1

    def test_read_after_shutdown_raises(self, managers):
        a, _ = managers
        a.shutdown()
        errors = []

        def reader():
            try:
                a.read("first-used-after-shutdown")
            except PeerClosed as exc:
                errors.append(exc)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        t.join(timeout=5)
        assert len(errors) == 1

    def test_writer_waits_for_new_socket_after_failed_send(self, managers,
                                                           monkeypatch):
        a, b = managers
        wire(a, "out", b, "in")
        real_send = channels.send_frame
        failed = a._channels["out"].sock
        attempts = []

        def send(sock, payload, max_frame):
            attempts.append(sock)
            if sock is failed:
                raise OSError("send failed")
            real_send(sock, payload, max_frame)

        monkeypatch.setattr(channels, "send_frame", send)
        done = threading.Event()

        def writer():
            a.write("out", b"after-rewire")
            done.set()

        threading.Thread(target=writer, daemon=True).start()
        time.sleep(0.3)
        assert attempts == [failed]  # parked, not retrying the dead socket
        a.disconnect("out")
        b.disconnect("in")
        wire(a, "out", b, "in")
        assert done.wait(timeout=5)
        assert b.read("in") == b"after-rewire"

    def test_attach_inbound_requires_listening(self, managers):
        a, _ = managers
        s1, s2 = socket_pair()
        try:
            assert not a.attach_inbound("nobody-listening", s1)
        finally:
            s1.close(), s2.close()


def refused(port):
    """True when nothing listens on (127.0.0.1, port) any more."""
    try:
        socket.create_connection(("127.0.0.1", port), timeout=5).close()
    except ConnectionRefusedError:
        return True
    return False


def connect_in_flight(port):
    """Start a connect to ``port`` without waiting for it to complete."""
    sock = socket.socket()
    sock.setblocking(False)
    sock.connect_ex(("127.0.0.1", port))
    return sock


class TestAcceptLoop:
    """Every listener of the process shares one accept thread, which
    exists only while some listener is registered."""

    def test_listening_names_share_one_thread(self):
        before = threading.active_count()
        m = ConnectionManager()
        ports = [m.create(f"n{i}") for i in range(10)]
        assert threading.active_count() <= before + 1
        m.shutdown()
        assert all(refused(port) for port in ports)
        assert threads_back_to(before), "accept thread outlived its listeners"

    def test_disconnect_races_inbound_connect(self, managers):
        a, _ = managers
        before = threading.active_count()
        clients = []
        try:
            for i in range(200):
                port = a.create(f"n{i}")
                clients.append(connect_in_flight(port))
                a.disconnect(f"n{i}")
                assert a.state(f"n{i}") == UNBOUND
                assert refused(port)
        finally:
            for sock in clients:
                sock.close()
        assert threads_back_to(before), "a listener or pump stayed"

    def test_concurrent_create_and_disconnect(self, managers):
        a, _ = managers
        before = threading.active_count()
        ports, errors, clients = [], [], []

        def churn(t):
            try:
                for i in range(50):
                    port = a.create(f"t{t}-{i}")
                    ports.append(port)
                    if i % 2:
                        clients.append(connect_in_flight(port))
                    a.disconnect(f"t{t}-{i}")
            except Exception as exc:  # reported below
                errors.append(exc)

        workers = [threading.Thread(target=churn, args=(t,))
                   for t in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        try:
            assert errors == []
            assert len(ports) == 400
            assert set(a.states().values()) == {UNBOUND}
            assert all(refused(port) for port in set(ports))
        finally:
            for sock in clients:
                sock.close()
        assert threads_back_to(before), "a listener or pump stayed"


_transitions = st.lists(st.sampled_from(["create", "disconnect"]),
                        max_size=12)


@given(_transitions)
@settings(max_examples=50, deadline=None)
def test_state_machine_never_enters_bad_state(ops):
    """Any sequence of create/disconnect leaves a coherent single state."""
    m = ConnectionManager()
    try:
        expected = UNBOUND
        for op in ops:
            if op == "create":
                if expected == UNBOUND:
                    m.create("ch")
                    expected = LISTENING
                else:
                    with pytest.raises(NameAlreadyBound):
                        m.create("ch")
            else:
                if expected == UNBOUND:
                    with pytest.raises(NameNotBound):
                        m.disconnect("ch")
                else:
                    m.disconnect("ch")
                    expected = UNBOUND
            assert m.state("ch") == expected
    finally:
        m.shutdown()
