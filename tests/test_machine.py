import socket
import threading
import time

import pytest

from cingal import remote, xmlcanon
from cingal.bundle import (
    Authentication,
    Bundle,
    CodeSection,
    Datum,
    bundle_to_element,
    serialize_bundle,
)
from cingal.channels import CONTROL_LOG_SIZE, Connector, recv_frame, send_frame
from cingal.documents import STATUS_FAILED, STATUS_OK, report_from_bytes
from cingal.engine import generate_todolist
from cingal.documents import todolist_content
from cingal.errors import (
    CapabilityDenied,
    ConnectFailed,
    ControlError,
    DuplicateEntry,
    NameNotBound,
    UnknownEntryPoint,
)
from cingal.guid import Guid, compute_guid
from cingal.machine import (
    ENTRY_INSTALLER,
    ENTRY_RUNNER,
    TERMINATED,
    ExecutorRegistry,
    default_registry,
)
from cingal.node import NodeConfig, ThinServer
from cingal.security import EntityRecord, parse_rights, sign_bundle
from conftest import make_bundle, make_signed, threads_back_to, wait_for

TESTER_RIGHTS = "STORE:PUT,GET;SBINDER:PUT,GET,REMOVE;FIRE:FIRE"


@pytest.fixture
def node(tmp_path, keypair, second_keypair):
    _, admin_cert = keypair
    server = ThinServer.start(NodeConfig(
        data_dir=str(tmp_path / "node"), fire_port=0,
        admin_entity="admin", admin_certificate=admin_cert))
    server.ver.add(EntityRecord("tester", keypair[1],
                                parse_rights(TESTER_RIGHTS)))
    server.ver.add(EntityRecord("weak", second_keypair[1],
                                parse_rights("FIRE:FIRE")))
    yield server
    server.stop()


def fire_local(node, bundle):
    return node.fire(serialize_bundle(bundle))


def installer_bundle(key, entity, payloads):
    """Configure an installer tool carrying the given payload bundles."""
    datums, payload_ids = [], []
    for payload in payloads:
        content = xmlcanon.canonical(bundle_to_element(payload))
        payload_id = str(compute_guid(content.encode("utf-8")))
        datums.append(Datum(payload_id, content))
        payload_ids.append(payload_id)
    todo = generate_todolist("install", payload_ids)
    datums.append(Datum("ToDoList", todolist_content(todo)))
    unsigned = Bundle(auth=Authentication("", ""),
                      code=CodeSection(ENTRY_INSTALLER, "builtin"),
                      data=tuple(datums))
    return sign_bundle(unsigned, key, entity)


def runner_bundle(key, entity, keys):
    todo = generate_todolist("run", keys)
    unsigned = Bundle(auth=Authentication("", ""),
                      code=CodeSection(ENTRY_RUNNER, "builtin"),
                      data=(Datum("ToDoList", todolist_content(todo)),))
    return sign_bundle(unsigned, key, entity)


class TestExecutorRegistry:
    def test_builtins_present(self):
        entries = default_registry().entries()
        for entry in (ENTRY_INSTALLER, ENTRY_RUNNER, "demo.Echo",
                      "demo.Source", "demo.Sink"):
            assert entry in entries

    def test_unknown_entry(self):
        with pytest.raises(UnknownEntryPoint):
            default_registry().resolve(make_bundle(entry="no.such.Thing"))

    def test_duplicate_registration(self):
        r = ExecutorRegistry()
        r.register("x", lambda b, api: None)
        with pytest.raises(DuplicateEntry):
            r.register("x", lambda b, api: None)

    def test_lookup_is_by_entry_name(self):
        r = ExecutorRegistry()
        marker = object()
        r.register("a.B", lambda b, api: marker)
        b = make_bundle(entry="a.B", code_type="whatever")
        assert r.resolve(b)(None, None) is marker


class TestMachineLifecycle:
    def test_echo_default_channel(self, node, keypair):
        machine, progenitor = fire_local(
            node, make_signed(keypair[0], "tester"))
        try:
            progenitor.write(b"ping")
            assert progenitor.read() == b"ping"
        finally:
            machine.terminate()

    def test_connector_has_two_live_ports(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            c = machine.connector
            assert c.machine_port != c.resource_port
            resp = remote.control_request(c.host, c.machine_port, "STATUS")
            assert resp.get("status") == "OK"
        finally:
            machine.terminate()

    def test_terminate_control_op(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        c = machine.connector
        remote.control_request(c.host, c.machine_port, "TERMINATE")
        assert wait_for(lambda: machine.state == TERMINATED)
        assert machine not in node.machines()

    def test_terminated_state_follows_unregister(self, node, keypair,
                                                 monkeypatch):
        real_unregister = node.unregister_machine

        def slow_unregister(m):
            time.sleep(0.2)
            real_unregister(m)

        monkeypatch.setattr(node, "unregister_machine", slow_unregister)
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        c = machine.connector
        remote.control_request(c.host, c.machine_port, "TERMINATE")
        assert wait_for(lambda: machine.state == TERMINATED)
        assert machine not in node.machines()

    def test_terminated_machine_refuses_control(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        c = machine.connector
        remote.control_request(c.host, c.machine_port, "TERMINATE")
        # unregistering is the last step of terminate, after the listeners
        assert wait_for(lambda: machine not in node.machines())
        with pytest.raises(ConnectFailed):
            remote.control_request(c.host, c.machine_port, "STATUS")

    def test_machine_terminates_when_behavior_returns(self, node, keypair):
        # install tools run to completion and exit on their own
        b = installer_bundle(keypair[0], "tester",
                             [make_bundle(entry="demo.Echo")])
        machine, progenitor = fire_local(node, b)
        report = report_from_bytes(progenitor.read())
        assert report.all_ok
        assert wait_for(lambda: machine.state == TERMINATED)

    def test_terminate_closes_idle_control_connections(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        c = machine.connector
        with socket.create_connection((c.host, c.machine_port)) as idle:
            idle.settimeout(5.0)
            send_frame(idle, xmlcanon.canonical_bytes(
                xmlcanon.element("REQUEST", {"op": "STATUS"})))
            assert recv_frame(idle) is not None  # served, now idle
            remote.control_request(c.host, c.machine_port, "TERMINATE")
            assert recv_frame(idle) is None

    def test_idle_control_connections_closed_after_deadline(
            self, tmp_path, keypair):
        server = ThinServer.start(NodeConfig(
            data_dir=str(tmp_path / "quick"), fire_port=0,
            connect_timeout=0.5))
        server.ver.add(EntityRecord("tester", keypair[1],
                                    parse_rights("FIRE:FIRE")))
        try:
            machine, _ = fire_local(server, make_signed(keypair[0], "tester"))
            c = machine.connector
            before = threading.active_count()
            idle = [socket.create_connection((c.host, c.machine_port))
                    for _ in range(20)]
            try:
                for sock in idle:
                    sock.settimeout(5.0)
                    assert sock.recv(1) == b""  # closed by the machine
                assert threads_back_to(before)
            finally:
                for sock in idle:
                    sock.close()
            resp = remote.control_request(c.host, c.machine_port, "STATUS")
            assert resp.get("status") == "OK"
        finally:
            server.stop()

    def test_machines_registered_in_pbinder(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            assert node.pbinder.get(machine.machine_id.hex) == \
                str(machine.connector)
        finally:
            machine.terminate()
        assert machine.machine_id.hex not in node.pbinder.names()

    def test_machine_that_ends_at_once_leaves_pbinder_empty(
            self, node, keypair, monkeypatch):
        node.executors.register("test.Quick", lambda b, api: None)
        real_put = node.pbinder.put

        def slow_put(name, value):
            time.sleep(0.2)
            real_put(name, value)

        monkeypatch.setattr(node.pbinder, "put", slow_put)
        machine, _ = fire_local(node, make_signed(keypair[0], "tester",
                                                  entry="test.Quick"))
        assert wait_for(lambda: machine.state == TERMINATED)
        time.sleep(0.3)
        assert node.machines() == []
        assert node.pbinder.names() == []

    def test_cohosted_machines_are_isolated(self, node, keypair):
        m1, p1 = fire_local(node, make_signed(keypair[0], "tester"))
        m2, p2 = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            assert m1.connector != m2.connector
            p1.write(b"one")
            p2.write(b"two")
            assert p1.read() == b"one"
            assert p2.read() == b"two"
        finally:
            m1.terminate()
            m2.terminate()


class TestControlProtocol:
    def test_create_then_status(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            c = machine.connector
            resp = remote.control_request(c.host, c.machine_port, "CREATE",
                                          {"name": "Out"})
            assert int(resp.get("port")) > 0
            status = remote.control_request(c.host, c.machine_port, "STATUS")
            channels = {ch.get("name"): ch.get("state") for ch in status}
            assert channels["Out"] == "LISTENING"
        finally:
            machine.terminate()

    def test_disconnect_unbound_is_error(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            c = machine.connector
            with pytest.raises(NameNotBound):
                remote.control_request(c.host, c.machine_port, "DISCONNECT",
                                       {"name": "nothing"})
        finally:
            machine.terminate()

    def test_control_log_records_exchanges(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            c = machine.connector
            remote.control_request(c.host, c.machine_port, "CREATE",
                                   {"name": "Out"})
            remote.control_request(c.host, c.machine_port, "STATUS")
            log = machine.cm.control_log
            assert len(log) == 2
            assert 'op="CREATE"' in log[0][0]
            assert "port=" in log[0][1]
            assert 'op="STATUS"' in log[1][0]
        finally:
            machine.terminate()

    def test_control_log_keeps_newest(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            c = machine.connector
            for i in range(2 * CONTROL_LOG_SIZE):
                remote.control_request(c.host, c.machine_port, "STATUS",
                                       {"seq": str(i)})
            seqs = [int(xmlcanon.parse_document(request).get("seq"))
                    for request, _ in machine.cm.control_log]
            assert seqs == list(range(CONTROL_LOG_SIZE, 2 * CONTROL_LOG_SIZE))
        finally:
            machine.terminate()

    def test_read_default_times_out_on_live_machine(self, node, keypair):
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            c = machine.connector
            with pytest.raises(ControlError) as excinfo:
                remote.control_request(c.host, c.machine_port,
                                       "READ_DEFAULT", {"timeout": "0.2"})
            assert excinfo.value.error_code == "Timeout"
        finally:
            machine.terminate()

    def test_unknown_op(self, node, keypair):
        from cingal.errors import CingalError
        machine, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            c = machine.connector
            with pytest.raises(CingalError):
                remote.control_request(c.host, c.machine_port, "DANCE")
        finally:
            machine.terminate()


class TestSecureBinding:
    """MachineApi's binder calls act only with the caller's rights."""

    @staticmethod
    def binder_user(b, api):
        outcome = []
        for call in (lambda: api.sbinder_put("svc", Guid("ab" * 16)),
                     lambda: api.sbinder_get("svc"),
                     lambda: api.sbinder_remove("svc"),
                     lambda: api.pbinder_get(b.datum("Machine").content)):
            try:
                outcome.append(str(call()))
            except CapabilityDenied:
                outcome.append("denied")
        api.default.write(",".join(outcome).encode())

    def run_as(self, node, key, entity, echo):
        b = make_signed(key, entity, entry="test.BinderUser",
                        datums=[Datum("Machine", echo.machine_id.hex)])
        machine, progenitor = fire_local(node, b)
        outcome = progenitor.read().decode().split(",")
        assert wait_for(lambda: machine.state == TERMINATED)
        return outcome

    def test_calls_with_rights(self, node, keypair):
        node.executors.register("test.BinderUser", self.binder_user)
        node.ver.add(EntityRecord("binder", keypair[1], parse_rights(
            "SBINDER:PUT,GET,REMOVE;PBINDER:GET;FIRE:FIRE")))
        echo, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            assert self.run_as(node, keypair[0], "binder", echo) == [
                "None", str(Guid("ab" * 16)), "None", str(echo.connector)]
            assert node.sbinder.names() == []
        finally:
            echo.terminate()

    def test_calls_without_rights_change_nothing(self, node, keypair,
                                                 second_keypair):
        node.executors.register("test.BinderUser", self.binder_user)
        node.sbinder.put("svc", Guid("cd" * 16))
        echo, _ = fire_local(node, make_signed(keypair[0], "tester"))
        try:
            pbinder = {n: node.pbinder.get(n) for n in node.pbinder.names()}
            assert self.run_as(node, second_keypair[0], "weak", echo) == \
                ["denied"] * 4
            assert node.sbinder.get("svc") == Guid("cd" * 16)
            assert {n: node.pbinder.get(n)
                    for n in node.pbinder.names()} == pbinder
        finally:
            echo.terminate()


class TestTools:
    def test_install_stores_payload(self, node, keypair):
        payload = make_bundle(entry="demo.Echo")
        b = installer_bundle(keypair[0], "tester", [payload])
        _, progenitor = fire_local(node, b)
        report = report_from_bytes(progenitor.read())
        assert report.all_ok
        (payload_ref, key), = report.results[0].info
        from cingal.guid import Guid
        assert node.store.get(Guid(key)) == payload
        assert key == payload_ref  # content addressing: ref is the store key

    def test_install_report_covers_every_task(self, node, keypair):
        payloads = [make_bundle(entry="demo.Echo"),
                    make_bundle(entry="demo.Source")]
        b = installer_bundle(keypair[0], "tester", payloads)
        _, progenitor = fire_local(node, b)
        report = report_from_bytes(progenitor.read())
        assert len(report.results) == 2
        assert report.all_ok

    def test_run_spawns_stored_bundle(self, node, keypair):
        payload = make_signed(keypair[0], "tester", entry="demo.Echo")
        key = node.store.put(payload)
        _, progenitor = fire_local(
            node, runner_bundle(keypair[0], "tester", [key]))
        report = report_from_bytes(progenitor.read())
        assert report.all_ok
        connector_text = report.results[0].info_value("Connector")
        assert wait_for(lambda: any(
            str(m.connector) == connector_text for m in node.machines()))

    def test_run_unknown_store_key_fails_cleanly(self, node, keypair):
        from cingal.guid import Guid
        _, progenitor = fire_local(
            node, runner_bundle(keypair[0], "tester", [Guid("ab" * 16)]))
        report = report_from_bytes(progenitor.read())
        assert report.results[0].status == STATUS_FAILED
        assert report.results[0].info_value("error") == "KeyNotFound"

    def test_wire_two_machines_on_one_node(self, node, keypair):
        from cingal.machine import ENTRY_WIRER
        source = make_signed(keypair[0], "tester", entry="demo.Source",
                             datums=[Datum("ChannelName", "Down")])
        sink = make_signed(keypair[0], "tester", entry="demo.Sink",
                           datums=[Datum("ChannelName", "Up")])
        m_src, p_src = fire_local(node, source)
        m_dst, p_dst = fire_local(node, sink)
        try:
            todo = generate_todolist(
                "wire", [(m_src.connector, m_dst.connector, "Down", "Up")])
            wirer = sign_bundle(Bundle(
                auth=Authentication("", ""),
                code=CodeSection(ENTRY_WIRER, "builtin"),
                data=(Datum("ToDoList", todolist_content(todo)),
                      Datum("SecondaryFireAddress", node.address)),
            ), keypair[0], "tester")
            _, p_wirer = fire_local(node, wirer)
            report = report_from_bytes(p_wirer.read())
            assert report.all_ok, report
            assert m_src.cm.state("Down") == "CONNECTED"
            assert m_dst.cm.state("Up") == "CONNECTED"
            p_src.write(b"payload")
            assert p_dst.read() == b"payload"
        finally:
            m_src.terminate()
            m_dst.terminate()


class TestBatchedWirer:
    """One wirer carries many WIRE tasks and fires one offspring for all."""

    @pytest.fixture
    def pair(self, node, keypair):
        source = make_signed(keypair[0], "tester", entry="demo.Source",
                             datums=[Datum("ChannelName", "Down")])
        sink = make_signed(keypair[0], "tester", entry="demo.Sink",
                           datums=[Datum("ChannelName", "Up")])
        (m_src, p_src), (m_dst, p_dst) = (fire_local(node, source),
                                          fire_local(node, sink))
        yield m_src, p_src, m_dst, p_dst
        m_src.terminate()
        m_dst.terminate()

    @pytest.fixture
    def offspring_fires(self, monkeypatch):
        from cingal.machine import MachineApi
        fired = []
        real = MachineApi.fire_remote

        def counted(api, address, doc):
            fired.append(address)
            return real(api, address, doc)

        monkeypatch.setattr(MachineApi, "fire_remote", counted)
        return fired

    @staticmethod
    def wire(node, keypair, wires, secondary_address=None):
        from cingal.machine import ENTRY_WIRER
        wirer = sign_bundle(Bundle(
            auth=Authentication("", ""),
            code=CodeSection(ENTRY_WIRER, "builtin"),
            data=(Datum("ToDoList", todolist_content(
                      generate_todolist("wire", wires))),
                  Datum("SecondaryFireAddress",
                        secondary_address or node.address)),
        ), keypair[0], "tester")
        _, p_wirer = fire_local(node, wirer)
        return report_from_bytes(p_wirer.read())

    def test_two_tasks_fire_one_offspring(self, node, keypair, pair,
                                          offspring_fires):
        m_src, p_src, m_dst, p_dst = pair
        report = self.wire(node, keypair, [
            (m_src.connector, m_dst.connector, "Down", "Up"),
            (m_dst.connector, m_src.connector, "Back", "Return")])
        assert report.all_ok, report
        assert len(report.results) == 2
        assert offspring_fires == [node.address]
        for m, name in ((m_src, "Down"), (m_dst, "Up"), (m_dst, "Back"),
                        (m_src, "Return")):
            assert wait_for(lambda: m.cm.state(name) == "CONNECTED"), name
        p_src.write(b"downstream")
        assert p_dst.read() == b"downstream"
        m_dst.cm.endpoint("Back").write(b"upstream")
        assert m_src.cm.endpoint("Return").read() == b"upstream"

    def test_one_failed_task_leaves_the_other_wired(self, node, keypair,
                                                    pair, offspring_fires):
        m_src, p_src, m_dst, p_dst = pair
        probe = socket.create_server(("127.0.0.1", 0))
        closed = probe.getsockname()[1]
        probe.close()
        report = self.wire(node, keypair, [
            (m_src.connector, Connector("127.0.0.1", closed, closed),
             "Spare", "Nowhere"),
            (m_src.connector, m_dst.connector, "Down", "Up")])
        bad, good = report.results
        assert bad.status == STATUS_FAILED
        assert bad.info_value("error") == "ConnectFailed"
        assert good.status == STATUS_OK
        assert offspring_fires == [node.address]
        p_src.write(b"still-wired")
        assert p_dst.read() == b"still-wired"

    @staticmethod
    def channel_states(m):
        c = m.connector
        status = remote.control_request(c.host, c.machine_port, "STATUS")
        return {e.get("name"): e.get("state")
                for e in status.findall("CHANNEL")}

    def test_failed_task_frees_its_listening_end(self, node, keypair, pair):
        m_src, p_src, m_dst, p_dst = pair
        probe = socket.create_server(("127.0.0.1", 0))
        closed = probe.getsockname()[1]
        probe.close()
        bad, = self.wire(node, keypair, [
            (m_src.connector, Connector("127.0.0.1", closed, closed),
             "Down", "Nowhere")]).results
        assert bad.status == STATUS_FAILED
        assert self.channel_states(m_src)["Down"] == "UNBOUND"
        # the same primary end wires again, now to a live secondary
        again, = self.wire(node, keypair, [
            (m_src.connector, m_dst.connector, "Down", "Up")]).results
        assert again.status == STATUS_OK, again
        p_src.write(b"rewired")
        assert p_dst.read() == b"rewired"

    def test_failed_offspring_fire_frees_every_listening_end(
            self, node, keypair, pair):
        m_src, p_src, m_dst, p_dst = pair
        probe = socket.create_server(("127.0.0.1", 0))
        nowhere = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        report = self.wire(node, keypair, [
            (m_src.connector, m_dst.connector, "Down", "Up"),
            (m_dst.connector, m_src.connector, "Back", "Return")],
            secondary_address=nowhere)
        assert [r.info_value("error") for r in report.results] == [
            "ConnectFailed", "ConnectFailed"]
        assert self.channel_states(m_src)["Down"] == "UNBOUND"
        assert self.channel_states(m_dst)["Back"] == "UNBOUND"


class TestCapabilityConfinement:
    def test_same_bundle_different_entity_differs_only_in_rights(
            self, node, keypair, second_keypair):
        """The capability context is the signing entity, not the code."""
        payload = make_bundle(entry="demo.Echo")

        def run_as(key, entity):
            b = installer_bundle(key, entity, [payload])
            _, progenitor = fire_local(node, b)
            return report_from_bytes(progenitor.read()).results[0]

        allowed = run_as(keypair[0], "tester")
        denied = run_as(second_keypair[0], "weak")  # FIRE only, no STORE:PUT
        assert allowed.status == STATUS_OK
        assert denied.status == STATUS_FAILED
        assert denied.info_value("error") == "CapabilityDenied"

    def test_spawn_requires_fire_right(self, node, keypair, second_keypair):
        # "weak" may fire bundles but the runner needs STORE:GET first;
        # an entity without FIRE:FIRE is stopped at the node's fire gate
        from cingal.errors import CapabilityDenied
        node.ver.add(EntityRecord("nofire", keypair[1],
                                  parse_rights("STORE:PUT,GET")),
                     caller=None)
        with pytest.raises(CapabilityDenied):
            fire_local(node, make_signed(keypair[0], "nofire"))
