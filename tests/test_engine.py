import threading
import time
from dataclasses import replace

import pytest

from cingal import engine as engine_module
from cingal import remote
from cingal.channels import Connector
from cingal.engine import (
    CONNECTED,
    DDD,
    DEFAULT_FIRE_PORT,
    UNWIRED,
    BundleRef,
    ConnectionRef,
    DeploymentRecord,
    DeploymentRef,
    Engine,
    HostRef,
    ddd_to_element,
    generate_todolist,
    parse_ddd,
)
from cingal.errors import DanglingReference, PhaseFailed, SchemaViolation
from cingal.harness import harness_spawn, observed_channel_state
from cingal.machine import ENTRY_INSTALLER, ENTRY_RUNNER, ENTRY_WIRER
from cingal.xmlcanon import canonical
from conftest import SAMPLES, threads_back_to, wait_for


SAMPLE_DDD = (SAMPLES / "server_cache_ddd.xml").read_bytes()


class TestParseDdd:
    def test_sample(self):
        ddd = parse_ddd(SAMPLE_DDD)
        assert ddd.name == "ServerAndCacheApplication"
        assert [h.address for h in ddd.hosts] == ["129.127.8.34",
                                                  "129.127.8.35"]
        assert [d.name for d in ddd.deployments] == ["PrimaryServer",
                                                     "CachingServer"]
        conn = ddd.connections[0]
        assert conn.source_channel == "DownstreamCache"
        assert conn.destination_channel == "UpstreamServer"

    def test_round_trip(self):
        ddd = parse_ddd(SAMPLE_DDD)
        assert parse_ddd(canonical(ddd_to_element(ddd))) == ddd

    def test_unknown_bundle_reference(self):
        doc = SAMPLE_DDD.replace(b'bundle="Server"', b'bundle="Ghost"')
        with pytest.raises(DanglingReference):
            parse_ddd(doc)

    def test_unknown_host_reference(self):
        doc = SAMPLE_DDD.replace(b'target="A"', b'target="Z"')
        with pytest.raises(DanglingReference):
            parse_ddd(doc)

    def test_unknown_deployment_in_connection(self):
        doc = SAMPLE_DDD.replace(b'deployment="CachingServer"',
                                 b'deployment="Phantom"')
        with pytest.raises(DanglingReference):
            parse_ddd(doc)

    def test_duplicate_deployment_names(self):
        doc = SAMPLE_DDD.replace(b'name="CachingServer"',
                                 b'name="PrimaryServer"')
        with pytest.raises(SchemaViolation):
            parse_ddd(doc)

    def test_wrong_root(self):
        with pytest.raises(SchemaViolation):
            parse_ddd(b"<BUNDLE/>")


class TestDeploymentRecordDocument:
    def test_connection_state_without_endpoints(self):
        doc = ('<DEPLOYMENTRECORD name="r"><HOSTS/><DEPLOYMENTS/>'
               '<CONNECTIONS><CONNECTIONSTATE status="UNWIRED"/></CONNECTIONS>'
               '</DEPLOYMENTRECORD>')
        with pytest.raises(SchemaViolation):
            DeploymentRecord.from_bytes(doc)


class TestGenerateTodolist:
    def test_install_shape(self):
        todo = generate_todolist("install", ["urn:cingal:a222jdd2s"])
        task = todo.tasks[0]
        assert task.type == "INSTALL"
        assert task.datum_text("PayloadRef") == "urn:cingal:a222jdd2s"

    def test_run_shape(self):
        todo = generate_todolist("run", ["urn:cingal:abcd"])
        task = todo.tasks[0]
        assert task.type == "RUN"
        assert task.datum_text("StoreGuid") == "urn:cingal:abcd"

    def test_wire_shape(self):
        primary = Connector("129.127.8.34", 30112, 29000)
        secondary = Connector("129.127.8.35", 47121, 26083)
        todo = generate_todolist(
            "wire", [(primary, secondary, "DownstreamCache",
                      "UpstreamServer")])
        task = todo.tasks[0]
        assert task.type == "WIRE"
        assert [d.id for d in task.datums] == [
            "PrimaryConnector", "SecondaryConnector",
            "PrimaryNamedChannel", "SecondaryNamedChannel"]
        assert 'machinePort="30112"' in task.datum_text("PrimaryConnector")
        assert task.datum_text("SecondaryNamedChannel") == "UpstreamServer"

    def test_guids_deterministic_and_distinct(self):
        a = generate_todolist("run", ["urn:cingal:aa", "urn:cingal:bb"])
        b = generate_todolist("run", ["urn:cingal:aa", "urn:cingal:bb"])
        assert [t.guid for t in a.tasks] == [t.guid for t in b.tasks]
        assert a.tasks[0].guid != a.tasks[1].guid

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            generate_todolist("float", [])


class TestFireAddress:
    def test_default_port_appended(self):
        engine = Engine("e", "key")
        assert engine.fire_address("10.0.0.1") == \
            f"10.0.0.1:{DEFAULT_FIRE_PORT}"

    def test_explicit_port_kept(self):
        engine = Engine("e", "key")
        assert engine.fire_address("10.0.0.1:9999") == "10.0.0.1:9999"


class TestToolBundle:
    def test_concurrent_callers_sign_each_kind_once(self, keypair,
                                                    monkeypatch):
        signed = []
        real_sign = engine_module.sign_bundle

        def slow_sign(b, key, entity):
            signed.append(b.code.entry)
            time.sleep(0.05)  # the other callers arrive before it returns
            return real_sign(b, key, entity)

        monkeypatch.setattr(engine_module, "sign_bundle", slow_sign)
        engine = Engine("e", keypair[0])
        callers = [threading.Thread(target=engine._tool_bundle,
                                    args=(ENTRY_WIRER, []))
                   for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join()
        assert signed == [ENTRY_WIRER]


# --- live deployments -------------------------------------------------------

@pytest.fixture(scope="module")
def topology():
    with harness_spawn(3) as topo:
        yield topo


def two_node_ddd(topo, connections=True):
    topo.write_component("server", "demo.Source", channel="DownstreamCache")
    topo.write_component("cache", "demo.Sink", channel="UpstreamServer")
    conn_xml = """
      <CONNECTIONS>
        <CONNECTION>
          <SOURCE deployment="PrimaryServer" channel="DownstreamCache"/>
          <DESTINATION deployment="CachingServer" channel="UpstreamServer"/>
        </CONNECTION>
      </CONNECTIONS>""" if connections else "<CONNECTIONS/>"
    return parse_ddd(f"""
      <DDD name="ServerAndCacheApplication">
        <BUNDLES>
          <BUNDLE name="Server" source="{topo.bundle_paths['server']}"/>
          <BUNDLE name="Cache" source="{topo.bundle_paths['cache']}"/>
        </BUNDLES>
        <HOSTS>
          {"".join(f'<HOST id="{"ABC"[i]}" address="{h.address}"/>'
                   for i, h in enumerate(topo.nodes))}
        </HOSTS>
        <DEPLOYMENTS>
          <DEPLOYMENT name="PrimaryServer" bundle="Server" target="A"/>
          <DEPLOYMENT name="CachingServer" bundle="Cache" target="B"/>
        </DEPLOYMENTS>
        {conn_xml}
      </DDD>""")


class TestDeploy:
    def test_full_deploy(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        assert record.deployment_state("PrimaryServer") == "wired"
        assert record.deployment_state("CachingServer") == "wired"
        conn = next(iter(record.connections.values()))
        assert conn.status == CONNECTED
        # the record's claim matches what the nodes report
        assert observed_channel_state(topology, record, "PrimaryServer",
                                      "DownstreamCache") == "CONNECTED"
        assert observed_channel_state(topology, record, "CachingServer",
                                      "UpstreamServer") == "CONNECTED"
        # and the wiring really carries data
        assert topology.probe(record, "PrimaryServer", "CachingServer",
                              b"hello") == b"hello"

    def test_phase_hook_ordering(self, topology):
        phases = []
        engine = topology.engine()
        engine.deploy(two_node_ddd(topology),
                      phase_hook=lambda p, r: phases.append(p))
        assert phases == ["install", "run", "wire"]

    def test_progress_lines(self, topology):
        engine = topology.engine()
        engine.deploy(two_node_ddd(topology))
        assert all(line.startswith("phase:") and " node:" in line
                   and line.endswith(("status:ok", "status:failed"))
                   for line in engine.progress)
        phases = [line.split()[0] for line in engine.progress]
        assert phases == ["phase:install", "phase:install",
                          "phase:run", "phase:run", "phase:wire"]

    def test_each_tool_kind_signed_once(self, topology, monkeypatch):
        signed = []
        real_sign = engine_module.sign_bundle

        def counted(b, key, entity):
            signed.append(b.code.entry)
            return real_sign(b, key, entity)

        monkeypatch.setattr(engine_module, "sign_bundle", counted)
        engine = topology.engine()
        for _ in range(2):
            record = engine.deploy(two_node_ddd(topology))
            assert record.deployment_state("CachingServer") == "wired"
        assert sorted(signed) == sorted([ENTRY_INSTALLER, ENTRY_RUNNER,
                                         ENTRY_WIRER])

    def test_zero_connection_ddd_ends_running(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology, connections=False))
        assert record.deployment_state("PrimaryServer") == "running"
        assert record.connections == {}

    def test_unreachable_host_fails_install_with_partial_record(
            self, topology):
        topo = topology
        topo.write_component("server", "demo.Source", channel="X")
        ddd = parse_ddd(f"""
          <DDD name="half-dead">
            <BUNDLES>
              <BUNDLE name="Server" source="{topo.bundle_paths['server']}"/>
            </BUNDLES>
            <HOSTS>
              <HOST id="A" address="{topo.node(0).address}"/>
              <HOST id="DEAD" address="127.0.0.1:1"/>
            </HOSTS>
            <DEPLOYMENTS>
              <DEPLOYMENT name="Live" bundle="Server" target="A"/>
              <DEPLOYMENT name="Doomed" bundle="Server" target="DEAD"/>
            </DEPLOYMENTS>
            <CONNECTIONS/>
          </DDD>""")
        engine = topo.engine()
        with pytest.raises(PhaseFailed) as excinfo:
            engine.deploy(ddd)
        failure = excinfo.value
        assert failure.phase == "install"
        assert failure.node == "DEAD"
        # host A sorts first, so its install completed before the failure
        assert failure.record.deployments["Live"].store_key is not None
        assert failure.record.deployments["Doomed"].store_key is None

    def test_record_round_trip(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        clone = DeploymentRecord.from_bytes(record.to_bytes())
        assert clone.comparable() == record.comparable()
        assert clone.hosts == record.hosts
        assert clone.deployments["PrimaryServer"].connector == \
            record.deployments["PrimaryServer"].connector


class TestRewire:
    def test_noop(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        before = record.comparable()
        refs = [c.ref for c in record.connections.values()]
        assert engine.rewire(record, refs).comparable() == before

    def test_remove_all_connections(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        engine.rewire(record, [])
        assert record.connections == {}
        assert record.deployment_state("PrimaryServer") == "running"
        assert observed_channel_state(topology, record, "PrimaryServer",
                                      "DownstreamCache") == "UNBOUND"

    def test_swap_connection(self, topology):
        topo = topology
        topo.write_component("server", "demo.Source", channel="Down")
        topo.write_component("cache", "demo.Sink", channel="Up")
        topo.write_component("cache2", "demo.Sink", channel="Up")
        ddd = parse_ddd(f"""
          <DDD name="swap">
            <BUNDLES>
              <BUNDLE name="Server" source="{topo.bundle_paths['server']}"/>
              <BUNDLE name="Cache" source="{topo.bundle_paths['cache']}"/>
              <BUNDLE name="Cache2" source="{topo.bundle_paths['cache2']}"/>
            </BUNDLES>
            <HOSTS>
              <HOST id="A" address="{topo.node(0).address}"/>
              <HOST id="B" address="{topo.node(1).address}"/>
              <HOST id="C" address="{topo.node(2).address}"/>
            </HOSTS>
            <DEPLOYMENTS>
              <DEPLOYMENT name="Src" bundle="Server" target="A"/>
              <DEPLOYMENT name="OldSink" bundle="Cache" target="B"/>
              <DEPLOYMENT name="NewSink" bundle="Cache2" target="C"/>
            </DEPLOYMENTS>
            <CONNECTIONS>
              <CONNECTION>
                <SOURCE deployment="Src" channel="Down"/>
                <DESTINATION deployment="OldSink" channel="Up"/>
              </CONNECTION>
            </CONNECTIONS>
          </DDD>""")
        engine = topo.engine()
        record = engine.deploy(ddd)
        assert topo.probe(record, "Src", "OldSink", b"v1") == b"v1"

        engine.rewire(record, [ConnectionRef("Src", "Down",
                                             "NewSink", "Up")])
        assert record.deployment_state("NewSink") == "wired"
        # the messages now land at the new sink, with no machine restarted
        assert topo.probe(record, "Src", "NewSink", b"v2") == b"v2"
        assert observed_channel_state(topo, record, "OldSink",
                                      "Up") == "UNBOUND"

    def test_rewire_missing_channel_fails(self, topology):
        from cingal.engine import ConnectionState
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        # disconnect out-of-band so the engine's view is stale
        engine.rewire(record, [])
        stale = ConnectionRef("PrimaryServer", "DownstreamCache",
                              "CachingServer", "UpstreamServer")
        record.connections[stale.key] = ConnectionState(stale, CONNECTED)
        with pytest.raises(PhaseFailed) as excinfo:
            engine.rewire(record, [])
        assert excinfo.value.phase == "unwire"


class TestMove:
    def test_move_component(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        old_connector = record.deployments["CachingServer"].connector
        engine.move_component(record, "CachingServer", "C")
        dep = record.deployments["CachingServer"]
        assert dep.host == "C"
        assert dep.connector != old_connector
        assert dep.state == "wired"
        assert topology.probe(record, "PrimaryServer", "CachingServer",
                              b"after-move") == b"after-move"

    def test_move_unknown_deployment(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        with pytest.raises(SchemaViolation):
            engine.move_component(record, "Ghost", "C")

    def test_move_to_unknown_host(self, topology):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        with pytest.raises(DanglingReference):
            engine.move_component(record, "CachingServer", "Z")


def lifecycle_ddd(topo, pairs=8):
    """Sources S<i> on host i mod 3 and sinks K<i> on host i+1 mod 3."""
    hosts = tuple(HostRef(f"H{h}", n.address) for h, n in
                  enumerate(topo.nodes))
    paths = {"Source": topo.write_component("source", "demo.Source",
                                            channel="Out"),
             "Sink": topo.write_component("sink", "demo.Sink", channel="In")}
    deployments = tuple(
        [DeploymentRef(f"S{i}", "Source", f"H{i % 3}") for i in range(pairs)]
        + [DeploymentRef(f"K{i}", "Sink", f"H{(i + 1) % 3}")
           for i in range(pairs)])
    return DDD("lifecycle", tuple(BundleRef(b, str(p))
                                  for b, p in paths.items()),
               hosts, deployments,
               tuple(ConnectionRef(f"S{i}", "Out", f"K{i}", "In")
                     for i in range(pairs)))


def terminate_all(record):
    for dep in record.deployments.values():
        remote.control_request(dep.connector.host,
                               dep.connector.machine_port, "TERMINATE")


class TestWirePerHostPair:
    def test_fires_one_wirer_and_one_offspring_per_host_pair(
            self, topology, monkeypatch):
        fired = []
        real_fire = remote.fire

        def counted(address, doc, *args):
            fired.append(address)
            return real_fire(address, doc, *args)

        monkeypatch.setattr(remote, "fire", counted)
        engine = topology.engine()
        record = engine.deploy(lifecycle_ddd(topology))
        # 3 installers + 3 runners + 3 host pairs x (wirer + offspring)
        assert len(fired) == 12
        fired.clear()
        # S7 -> K0 is a same-host pair, so the rotation wires 4 groups
        engine.rewire(record, [ConnectionRef(f"S{i}", "Out",
                                             f"K{(i + 1) % 8}", "In")
                               for i in range(8)])
        assert len(fired) == 8
        fired.clear()
        engine.move_component(record, "K3", "H0")
        assert len(fired) == 4
        for i in range(8):
            sink = f"K{(i + 1) % 8}"
            assert topology.probe(record, f"S{i}", sink,
                                  b"to-" + sink.encode()) == \
                b"to-" + sink.encode()
        terminate_all(record)

    def test_parallel_and_serial_wiring_agree(self, topology):
        ddd = lifecycle_ddd(topology, pairs=4)
        # a same-host pair next to the three cross-host ones
        ddd = replace(ddd, connections=ddd.connections + (
            ConnectionRef("K0", "Out", "S1", "In"),))
        results = []
        for parallel in (True, False):
            engine = topology.engine()
            record = engine.deploy(ddd, parallel_wire=parallel)
            pairs = {(record.deployments[c.ref.source_deployment].host,
                      record.deployments[c.ref.destination_deployment].host)
                     for c in record.connections.values()}
            assert len(pairs) == 4 and ("H1", "H1") in pairs
            results.append((record.comparable(), sorted(engine.progress)))
            terminate_all(record)
        assert results[0] == results[1]
        wire_lines = [line for line in results[0][1]
                      if line.startswith("phase:wire")]
        assert wire_lines == ["phase:wire node:H0 status:ok",
                              "phase:wire node:H1 status:ok",
                              "phase:wire node:H1 status:ok",
                              "phase:wire node:H2 status:ok"]

    def test_failed_connection_in_a_group(self, topology):
        ddd = lifecycle_ddd(topology, pairs=2)
        ddd = replace(ddd, deployments=tuple(
            replace(d, target="H0" if d.name.startswith("S") else "H1")
            for d in ddd.deployments))

        def stop_k1(phase, record):
            if phase == "run":  # K1's connector goes stale before wiring
                dep = record.deployments["K1"]
                remote.control_request(dep.connector.host,
                                       dep.connector.machine_port,
                                       "TERMINATE")

        engine = topology.engine()
        with pytest.raises(PhaseFailed) as excinfo:
            engine.deploy(ddd, phase_hook=stop_k1)
        failure = excinfo.value
        assert failure.phase == "wire" and failure.node == "H0"
        status = {c.ref.destination_deployment: c.status
                  for c in failure.record.connections.values()}
        assert status == {"K0": CONNECTED, "K1": UNWIRED}
        assert topology.probe(failure.record, "S0", "K0", b"ok") == b"ok"
        for name in ("S0", "S1", "K0"):
            dep = failure.record.deployments[name]
            remote.control_request(dep.connector.host,
                                   dep.connector.machine_port, "TERMINATE")


class TestInstallLoadsEachSourceOnce:
    def test_lifecycle_loads_two_sources(self, topology, monkeypatch):
        loaded = []
        real = Engine.load_bundle_source

        def counted(engine, source):
            loaded.append(source)
            return real(engine, source)

        monkeypatch.setattr(Engine, "load_bundle_source", counted)
        engine = topology.engine()
        record = engine.deploy(lifecycle_ddd(topology))
        assert len(record.deployments) == 16
        assert len(loaded) == 2
        terminate_all(record)

    def test_missing_source_still_schema_violation(self, topology,
                                                   tmp_path):
        ddd = lifecycle_ddd(topology, pairs=2)
        ddd = replace(ddd, bundles=(
            ddd.bundles[0], BundleRef("Sink", str(tmp_path / "gone.xml"))))
        engine = topology.engine()
        with pytest.raises(SchemaViolation, match="gone.xml"):
            engine.deploy(ddd)
        # H0 holds only sources; H1 is the first host with a sink
        assert engine.progress == ["phase:install node:H0 status:ok"]


class TestMoveControlOps:
    def test_move_disconnects_only_the_staying_end(self, topology,
                                                   monkeypatch):
        engine = topology.engine()
        record = engine.deploy(two_node_ddd(topology))
        source = record.deployments["PrimaryServer"].connector
        sink = record.deployments["CachingServer"].connector
        ops = []
        real_request = remote.control_request

        def recorded(host, port, op, *args, **kwargs):
            ops.append((op, port))
            return real_request(host, port, op, *args, **kwargs)

        monkeypatch.setattr(remote, "control_request", recorded)
        engine.move_component(record, "CachingServer", "C")
        teardown = [o for o in ops if o[0] in ("DISCONNECT", "TERMINATE")]
        assert teardown == [("DISCONNECT", source.machine_port),
                            ("TERMINATE", sink.machine_port)]
        monkeypatch.undo()
        assert topology.probe(record, "PrimaryServer", "CachingServer",
                              b"moved") == b"moved"
        terminate_all(record)


class TestTeardown:
    def test_cycles_bring_threads_back_to_baseline(self):
        with harness_spawn(2) as topo:
            engine = topo.engine()
            ddd = two_node_ddd(topo)
            before = threading.active_count()
            for cycle in range(5):
                record = engine.deploy(ddd)
                engine.rewire(record, [])
                engine.rewire(record, list(ddd.connections))
                engine.move_component(record, "CachingServer", "A")
                payload = b"cycle-%d" % cycle
                assert topo.probe(record, "PrimaryServer", "CachingServer",
                                  payload) == payload
                for dep in record.deployments.values():
                    remote.control_request(dep.connector.host,
                                           dep.connector.machine_port,
                                           "TERMINATE")
                assert wait_for(lambda: not any(
                    h.server.machines() for h in topo.nodes))
            assert threads_back_to(before), \
                f"{threading.active_count()} threads live, {before} before"
