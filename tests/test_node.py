import os
import socket
import struct
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from cingal import remote, security, xmlcanon
from cingal.bundle import serialize_bundle
from cingal.channels import Connector
from cingal.errors import (
    BadSignature,
    CapabilityDenied,
    ControlError,
    CorruptState,
    MalformedDocument,
    PeerClosed,
    PortInUse,
    UnknownEntity,
)
from cingal.node import NodeConfig, ThinServer, read_default, write_default
from cingal.security import ALL_RIGHTS, EntityRecord, parse_rights
from conftest import make_bundle, make_signed, threads_back_to, wait_for


def config_for(tmp_path, keypair, **overrides):
    _, admin_cert = keypair
    kwargs = dict(data_dir=str(tmp_path / "node"), fire_port=0,
                  admin_entity="admin", admin_certificate=admin_cert)
    kwargs.update(overrides)
    return NodeConfig(**kwargs)


@pytest.fixture
def node(tmp_path, keypair):
    server = ThinServer.start(config_for(tmp_path, keypair))
    server.ver.add(EntityRecord(
        "tester", keypair[1],
        parse_rights("STORE:PUT,GET;SBINDER:PUT,GET,REMOVE;FIRE:FIRE")))
    yield server
    server.stop()


class TestFireGate:
    """Parse, entity lookup, signature, capability — in that order, and
    a failure at any point leaves the node untouched."""

    def test_malformed_document(self, node):
        with pytest.raises(MalformedDocument):
            node.fire(b"garbage")
        assert node.machines() == []

    def test_unknown_entity(self, node, keypair):
        b = make_signed(keypair[0], "stranger")
        with pytest.raises(UnknownEntity):
            node.fire(serialize_bundle(b))
        assert node.machines() == []

    def test_bad_signature(self, node, keypair, second_keypair):
        # entity is known but the bundle was signed with the wrong key
        b = make_signed(second_keypair[0], "tester")
        with pytest.raises(BadSignature):
            node.fire(serialize_bundle(b))
        assert node.machines() == []

    def test_no_fire_right(self, node, keypair):
        node.ver.add(EntityRecord("watcher", keypair[1],
                                  parse_rights("STORE:GET")))
        b = make_signed(keypair[0], "watcher")
        with pytest.raises(CapabilityDenied):
            node.fire(serialize_bundle(b))
        assert node.machines() == []

    def test_valid_bundle_fires(self, node, keypair):
        machine, _ = node.fire(serialize_bundle(
            make_signed(keypair[0], "tester")))
        assert machine in node.machines()
        machine.terminate()

    def test_unsigned_bundle_rejected_not_errored(self, node):
        # the placeholder signature is bad base64/ed25519; still BadSignature
        node.ver.add(EntityRecord("nobody", node.config.admin_certificate,
                                  ALL_RIGHTS))
        with pytest.raises(BadSignature):
            node.fire(serialize_bundle(make_bundle()))


class TestSignatureMemo:
    """Accepted fires are memoised; nothing else gets past the gate."""

    @pytest.fixture
    def verifications(self, monkeypatch):
        calls = []
        real = security.verify_bundle

        def counted(b, certificate_pem):
            calls.append(b.auth.entity)
            return real(b, certificate_pem)

        monkeypatch.setattr(security, "verify_bundle", counted)
        return calls

    def test_repeated_accepted_fire_verifies_once(self, node, keypair,
                                                  verifications):
        doc = serialize_bundle(make_signed(keypair[0], "tester"))
        for _ in range(3):
            machine, _ = node.fire(doc)
            machine.terminate()
        assert verifications == ["tester"]

    def test_changed_code_under_accepted_signature_refused(self, node,
                                                           keypair):
        b = make_signed(keypair[0], "tester")
        machine, _ = node.fire(serialize_bundle(b))
        machine.terminate()
        for code in (replace(b.code, units=(("unit", "b3RoZXI="),)),
                     replace(b.code, entry="demo.Sink")):
            with pytest.raises(BadSignature):
                node.fire(serialize_bundle(replace(b, code=code)))
        assert node.machines() == []

    def test_forged_fire_refused_every_time(self, node, second_keypair,
                                            verifications):
        doc = serialize_bundle(make_signed(second_keypair[0], "tester"))
        for _ in range(3):
            with pytest.raises(BadSignature):
                node.fire(doc)
        # each refusal paid the full check: failures are never memoised
        assert verifications == ["tester"] * 3
        assert node.machines() == []

    def test_removed_entity_refused_after_acceptance(self, node, keypair):
        doc = serialize_bundle(make_signed(keypair[0], "tester"))
        machine, _ = node.fire(doc)
        machine.terminate()
        node.ver.remove("tester")
        with pytest.raises(UnknownEntity):
            node.fire(doc)
        assert node.machines() == []

    def test_rekeyed_entity_refused_after_acceptance(self, node, keypair,
                                                     second_keypair):
        doc = serialize_bundle(make_signed(keypair[0], "tester"))
        machine, _ = node.fire(doc)
        machine.terminate()
        node.ver.remove("tester")
        node.ver.add(EntityRecord("tester", second_keypair[1],
                                  parse_rights("FIRE:FIRE")))
        with pytest.raises(BadSignature):
            node.fire(doc)
        assert node.machines() == []


class TestFireDaemon:
    def test_remote_fire_and_default_channel(self, node, keypair):
        handle = remote.fire(node.address, serialize_bundle(
            make_signed(keypair[0], "tester")))  # demo.Echo
        try:
            handle.write(b"over-the-wire")
            assert handle.read(timeout=5.0) == b"over-the-wire"
        finally:
            handle.close()

    def test_remote_fire_errors_map_back(self, node, keypair):
        with pytest.raises(UnknownEntity):
            remote.fire(node.address, serialize_bundle(
                make_signed(keypair[0], "stranger")))

    def test_status_document(self, node, keypair):
        machine, _ = node.fire(serialize_bundle(
            make_signed(keypair[0], "tester")))
        try:
            status = remote.node_status(node.address)
            assert status.tag == "STATUS"
            assert status.get("machines") == "1"
            entry = status.find("MACHINE")
            assert entry.get("entity") == "tester"
            assert entry.find("CONNECTOR") is not None
        finally:
            machine.terminate()

    def test_default_channel_helpers(self, node, keypair):
        machine, _ = node.fire(serialize_bundle(
            make_signed(keypair[0], "tester")))
        try:
            write_default(machine.connector, b"probe")
            assert read_default(machine.connector, timeout=5.0) == b"probe"
        finally:
            machine.terminate()


    def test_idle_fire_connection_closed_after_deadline(self, tmp_path,
                                                        keypair):
        server = ThinServer.start(config_for(tmp_path, keypair,
                                             connect_timeout=0.5))
        try:
            with socket.create_connection(("127.0.0.1",
                                           server.fire_port)) as idle:
                idle.settimeout(5.0)
                assert idle.recv(1) == b""  # closed by the node, no timeout
        finally:
            server.stop()

    def test_dribbling_client_released_at_deadline(self, tmp_path, keypair):
        server = ThinServer.start(config_for(tmp_path, keypair,
                                             connect_timeout=0.5))
        stop = threading.Event()

        def dribble(sock):  # one byte of a 1000-byte frame every 0.1 s
            try:
                for byte in struct.pack("!I", 1000) + b"x" * 1000:
                    if stop.wait(0.1):
                        return
                    sock.send(bytes([byte]))
            except OSError:
                pass  # the node closed the connection

        before = threading.active_count()
        try:
            with socket.create_connection(("127.0.0.1",
                                           server.fire_port)) as sock:
                threading.Thread(target=dribble, args=(sock,),
                                 daemon=True).start()
                # only the dribbler is left once the node gives up
                assert threads_back_to(before + 1, timeout=2.0), \
                    "the node still serves the dribbling client"
        finally:
            stop.set()
            server.stop()

    def test_stop_closes_live_fire_connection(self, tmp_path, keypair):
        before = threading.active_count()
        server = ThinServer.start(config_for(tmp_path, keypair))
        server.ver.add(EntityRecord("tester", keypair[1],
                                    parse_rights("FIRE:FIRE")))
        handle = remote.fire(server.address, serialize_bundle(
            make_signed(keypair[0], "tester")))  # demo.Echo
        try:
            server.stop()
            with pytest.raises(PeerClosed, match="closed"):
                handle.read(timeout=5.0)
            assert threads_back_to(before), "fire connection still served"
        finally:
            handle.close()


class TestFireConnection:
    """The fire connection is the fired machine's default channel: no node
    thread relays it, and either end closing it ends the other."""

    def fire_many(self, node, keypair, n, entry="demo.Echo"):
        doc = serialize_bundle(make_signed(keypair[0], "tester", entry=entry))
        return [remote.fire(node.address, doc) for _ in range(n)]

    def test_terminate_closes_fire_connection(self, node, keypair):
        before = threading.active_count()
        handles = self.fire_many(node, keypair, 10)
        try:
            for h in handles:
                remote.control_request(h.connector.host,
                                       h.connector.machine_port, "TERMINATE")
            for h in handles:
                with pytest.raises(PeerClosed, match="closed"):
                    h.read(timeout=5.0)
            assert threads_back_to(before), "fire connections still served"
            assert node.machines() == []
        finally:
            for h in handles:
                h.close()

    def test_client_close_ends_machine(self, node, keypair):
        handles = self.fire_many(node, keypair, 5)
        assert len(node.machines()) == 5
        for h in handles:
            h.close()
        assert wait_for(lambda: node.machines() == [])

    def test_unread_writes_wait_in_tcp(self, node, keypair):
        handle, = self.fire_many(node, keypair, 1, entry="demo.Source")
        chunk = b"x" * (256 * 1024)
        outcome = []

        def writer():
            try:
                for _ in range(400):
                    handle.write(chunk)
                outcome.append("all written")
            except PeerClosed:
                outcome.append("PeerClosed")

        t = threading.Thread(target=writer, daemon=True)
        t.start()
        try:
            t.join(2.0)
            assert t.is_alive(), "the node took every write off the wire"
            c = handle.connector
            remote.control_request(c.host, c.machine_port, "TERMINATE")
            t.join(5.0)
            assert not t.is_alive()
            assert outcome == ["PeerClosed"]
        finally:
            handle.close()

    def test_default_ops_refused_on_fired_machine(self, node, keypair):
        handle, = self.fire_many(node, keypair, 1)
        try:
            c = handle.connector
            for op in ("READ_DEFAULT", "WRITE_DEFAULT"):
                with pytest.raises(ControlError) as excinfo:
                    remote.control_request(c.host, c.machine_port, op,
                                           {"timeout": "0.2"})
                assert excinfo.value.error_code == "UnknownOp"
            handle.write(b"still echoed")
            assert handle.read(timeout=5.0) == b"still echoed"
        finally:
            handle.close()

    def test_fireresult_precedes_an_immediate_end(self, node, keypair):
        node.executors.register("test.Quick", lambda b, api: None)
        for _ in range(200):
            handle, = self.fire_many(node, keypair, 1, entry="test.Quick")
            try:
                with pytest.raises(PeerClosed, match="closed"):
                    handle.read(timeout=5.0)
            finally:
                handle.close()


class TestThreadsPerMachine:
    """A fired machine starts its executor and no accept thread: every
    listener of the process is served by one accept thread."""

    def test_idle_fired_machine_adds_only_its_executor(self, node, keypair):
        before = threading.active_count()
        handle = remote.fire(node.address, serialize_bundle(
            make_signed(keypair[0], "tester")))  # demo.Echo
        try:
            # the fire port's thread ends once the machine has the socket
            assert wait_for(lambda: threading.active_count() <= before + 1), \
                f"{threading.active_count() - before} threads added"
            handle.write(b"ping")  # the one thread left is the executor
            assert handle.read(timeout=5.0) == b"ping"
            assert len(node.machines()) == 1
        finally:
            handle.close()
        assert threads_back_to(before)

    def test_process_threads_with_one_node(self):
        script = textwrap.dedent("""
            import tempfile, threading, time
            from cingal import remote
            from cingal.bundle import (Authentication, Bundle, CodeSection,
                                       serialize_bundle)
            from cingal.node import NodeConfig, ThinServer
            from cingal.security import (EntityRecord, generate_keypair,
                                         parse_rights, sign_bundle)

            def settle(n):
                deadline = time.monotonic() + 5
                while (threading.active_count() > n
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                return threading.active_count()

            key, cert = generate_keypair()
            echo = sign_bundle(Bundle(
                Authentication("", ""),
                CodeSection("demo.Echo", "builtin", (("unit", "Y29kZQ=="),)),
                ()), key, "tester")
            with tempfile.TemporaryDirectory() as data_dir:
                node = ThinServer.start(NodeConfig(data_dir=data_dir,
                                                   fire_port=0))
                node.ver.add(EntityRecord("tester", cert,
                                          parse_rights("FIRE:FIRE")))
                handle = remote.fire(node.address, serialize_bundle(echo))
                running = settle(3)  # main, accept loop, Echo executor
                node.stop()
                handle.close()
                print(running, settle(1))
        """)
        src = Path(remote.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["3", "1"]


class TestOneParsePerFire:
    """The fire daemon parses a fire frame once, and the fired machine
    writes its own OK FIRERESULT before its behaviour runs."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """Calls of xmlcanon.parse_document, by the document they parse."""
        seen = []
        real = xmlcanon.parse_document

        def counted(doc):
            seen.append(doc)
            return real(doc)

        monkeypatch.setattr(xmlcanon, "parse_document", counted)
        return seen

    def test_accepted_fire_parses_its_frame_once(self, node, keypair,
                                                  parses):
        doc = serialize_bundle(make_signed(keypair[0], "tester"))
        handle = remote.fire(node.address, doc)
        handle.close()
        assert parses.count(doc) == 1

    def test_forged_fire_parses_its_frame_once(self, node, second_keypair,
                                               parses):
        doc = serialize_bundle(make_signed(second_keypair[0], "tester"))
        with pytest.raises(BadSignature):
            remote.fire(node.address, doc)
        assert parses.count(doc) == 1

    def test_fireresult_precedes_a_write_and_an_end(self, node, keypair):
        node.executors.register("test.Once",
                                lambda b, api: api.default.write(b"once"))
        doc = serialize_bundle(make_signed(keypair[0], "tester",
                                           entry="test.Once"))
        for _ in range(200):
            handle = remote.fire(node.address, doc)  # reads FIRERESULT
            try:
                assert handle.read(timeout=5.0) == b"once"
                with pytest.raises(PeerClosed, match="closed"):
                    handle.read(timeout=5.0)
            finally:
                handle.close()

    def test_garbage_fire_is_malformed(self, node):
        before = threading.active_count()
        with pytest.raises(MalformedDocument):
            remote.fire(node.address, b"garbage")
        assert node.machines() == []
        assert threads_back_to(before)


class TestFireResult:
    """FIRERESULT bytes are pinned: clients parse them."""

    def test_ok(self):
        connector = Connector("127.0.0.1", 40001, 40002)
        assert remote.fire_result(connector) == (
            b'<FIRERESULT status="OK"><CONNECTOR host="127.0.0.1" '
            b'machinePort="40001" resourcePort="40002"/></FIRERESULT>')

    def test_error(self):
        assert remote.fire_result(error=BadSignature(
            "signature of tester does not verify")) == (
            b'<FIRERESULT status="ERROR" error="BadSignature">'
            b'signature of tester does not verify</FIRERESULT>')
        assert remote.fire_result(error=BadSignature('a <b> & "c"')) == (
            b'<FIRERESULT status="ERROR" error="BadSignature">'
            b'a &lt;b&gt; &amp; "c"</FIRERESULT>')


class TestPersistence:
    def test_store_and_sbinder_survive_restart(self, tmp_path, keypair):
        server = ThinServer.start(config_for(tmp_path, keypair))
        b = make_bundle(entry="demo.Echo")
        key = server.store.put(b)
        server.sbinder.put("Server", key)
        server.stop()

        reborn = ThinServer.start(config_for(tmp_path, keypair))
        try:
            assert reborn.store.get(key) == b
            assert reborn.sbinder.get("Server") == key
        finally:
            reborn.stop()

    def test_machines_do_not_survive_restart(self, tmp_path, keypair):
        server = ThinServer.start(config_for(tmp_path, keypair))
        server.ver.add(EntityRecord("tester", keypair[1],
                                    parse_rights("FIRE:FIRE")))
        server.fire(serialize_bundle(make_signed(keypair[0], "tester")))
        assert len(server.pbinder.names()) == 1
        server.stop()

        reborn = ThinServer.start(config_for(tmp_path, keypair))
        try:
            assert reborn.machines() == []
            assert reborn.pbinder.names() == []
        finally:
            reborn.stop()

    def test_fire_and_terminate_leave_binders_doc_untouched(self, node,
                                                            keypair):
        binders_doc = Path(node.config.data_dir) / "binders.doc"
        doc = serialize_bundle(make_signed(keypair[0], "tester"))
        machine, _ = node.fire(doc)
        c = machine.connector
        remote.control_request(c.host, c.machine_port, "TERMINATE")
        assert wait_for(lambda: node.machines() == [])
        # nothing but the sbinder is persisted, and it did not change
        assert not binders_doc.exists()

        node.sbinder.put("Server", node.store.put(make_bundle()))
        before = binders_doc.read_bytes()
        machine, _ = node.fire(doc)
        assert binders_doc.read_bytes() == before
        c = machine.connector
        remote.control_request(c.host, c.machine_port, "TERMINATE")
        assert wait_for(lambda: node.machines() == [])
        assert binders_doc.read_bytes() == before
        root = xmlcanon.parse_document(before)
        assert [b.get("name") for b in root.findall("BINDER")] == ["sbinder"]

    def test_rebinding_the_same_value_writes_nothing(self, node):
        binders_doc = Path(node.config.data_dir) / "binders.doc"
        key = node.store.put(make_bundle())
        node.sbinder.put("Server", key)
        binders_doc.unlink()
        node.sbinder.put("Server", key)
        assert not binders_doc.exists()

    def test_concurrent_sbinder_put_and_remove(self, node, monkeypatch):
        key = node.store.put(make_bundle())
        node.sbinder.put("x", key)
        # Remove "x" from another thread if persisting the put of "y"
        # reads the binder back by name, between listing and reading.
        real_get = node.sbinder.get
        raced = []

        def get_racing_a_remove(name):
            if not raced:
                raced.append(name)
                remover = threading.Thread(
                    target=node.sbinder.remove, args=("x",))
                remover.start()
                remover.join(5.0)
            return real_get(name)

        monkeypatch.setattr(node.sbinder, "get", get_racing_a_remove)
        node.sbinder.put("y", key)
        if "x" in node.sbinder:
            node.sbinder.remove("x")

        errors = []

        def churn(prefix):
            try:
                for i in range(50):
                    node.sbinder.put(f"{prefix}{i % 5}", key)
                    node.sbinder.remove(f"{prefix}{i % 5}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(p,)) for p in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert errors == []
        root = xmlcanon.parse_document(
            (Path(node.config.data_dir) / "binders.doc").read_bytes())
        assert [b.get("name") for b in root.iter("BINDING")] == ["y"]

    def test_ver_survives_restart(self, tmp_path, keypair):
        server = ThinServer.start(config_for(tmp_path, keypair))
        server.ver.add(EntityRecord("tester", keypair[1],
                                    parse_rights("FIRE:FIRE")))
        server.stop()
        reborn = ThinServer.start(config_for(tmp_path, keypair))
        try:
            assert reborn.ver.lookup("tester").rights == \
                parse_rights("FIRE:FIRE")
        finally:
            reborn.stop()


class TestTornState:
    """A state file cut short refuses the start with CorruptState, and a
    start that failed leaves the data directory free."""

    @staticmethod
    def tear(tmp_path, keypair, name: str) -> bytes:
        server = ThinServer.start(config_for(tmp_path, keypair))
        server.sbinder.put("Server", server.store.put(make_bundle()))
        server.stop()
        path = tmp_path / "node" / name
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])
        return whole

    @pytest.mark.parametrize("name", ["ver.doc", "binders.doc"])
    def test_torn_file_is_corrupt_state(self, tmp_path, keypair, name):
        self.tear(tmp_path, keypair, name)
        with pytest.raises(CorruptState):
            ThinServer(config_for(tmp_path, keypair))

    def test_failed_start_releases_lock(self, tmp_path, keypair):
        whole = self.tear(tmp_path, keypair, "ver.doc")
        with pytest.raises((CorruptState, MalformedDocument)):
            ThinServer(config_for(tmp_path, keypair))
        (tmp_path / "node" / "ver.doc").write_bytes(whole)
        reborn = ThinServer.start(config_for(tmp_path, keypair))
        try:
            assert "admin" in reborn.ver
        finally:
            reborn.stop()


class TestExclusivity:
    def test_port_in_use(self, tmp_path, keypair, node):
        with pytest.raises(PortInUse):
            ThinServer.start(config_for(
                tmp_path, keypair, fire_port=node.fire_port,
                data_dir=str(tmp_path / "other")))

    def test_data_dir_lock(self, tmp_path, keypair, node):
        with pytest.raises(CorruptState):
            ThinServer(NodeConfig(data_dir=node.config.data_dir))

    def test_lock_released_on_stop(self, tmp_path, keypair):
        first = ThinServer.start(config_for(tmp_path, keypair))
        first.stop()
        second = ThinServer.start(config_for(tmp_path, keypair))
        second.stop()


class TestNodeConfig:
    def test_round_trip(self, tmp_path, keypair):
        config = config_for(tmp_path, keypair, fire_port=4126,
                            digest="sha256")
        path = tmp_path / "config.xml"
        path.write_bytes(config.to_bytes())
        loaded = NodeConfig.from_file(path)
        assert loaded == config

    def test_bad_digest(self, tmp_path):
        from cingal.errors import SchemaViolation
        with pytest.raises(SchemaViolation):
            NodeConfig(data_dir=str(tmp_path), digest="crc32")

    def test_data_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CINGAL_DATA_DIR", str(tmp_path / "elsewhere"))
        config = NodeConfig(data_dir=str(tmp_path / "ignored"))
        assert config.data_dir == str(tmp_path / "elsewhere")

    def test_store_digest_choice_changes_keys(self, tmp_path, keypair):
        b = make_bundle()
        md5_node = ThinServer.start(config_for(tmp_path / "a", keypair))
        sha_node = ThinServer.start(config_for(tmp_path / "b", keypair,
                                               digest="sha256"))
        try:
            k1, k2 = md5_node.store.put(b), sha_node.store.put(b)
            assert len(k1.hex) == 32
            assert len(k2.hex) == 64
        finally:
            md5_node.stop()
            sha_node.stop()
