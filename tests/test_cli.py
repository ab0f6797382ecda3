import subprocess
import sys

import pytest

from cingal.bundle import parse_bundle, serialize_bundle
from cingal.engine import DeploymentRecord
from cingal.harness import DEPLOYER_ENTITY, harness_spawn
from cingal.node import NodeConfig
from cingal.security import generate_keypair, verify_bundle
from conftest import make_bundle

CLI = [sys.executable, "-m", "cingal"]


def run_cli(*args, timeout=60):
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, timeout=timeout)


@pytest.fixture(scope="module")
def topology(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-topology")
    with harness_spawn(2, base_dir=base) as topo:
        (base / "deployer.key").write_text(topo.deployer_key)
        yield topo


def deployer_args(topo):
    return ["--signer-entity", DEPLOYER_ENTITY,
            "--signer-key", str(topo.base_dir / "deployer.key")]


class TestNodeCommands:
    def test_start_prints_fire_port_then_serves(self, tmp_path, keypair):
        config = NodeConfig(data_dir=str(tmp_path / "n"), fire_port=0,
                            admin_entity="admin",
                            admin_certificate=keypair[1])
        config_path = tmp_path / "config.xml"
        config_path.write_bytes(config.to_bytes())
        proc = subprocess.Popen(CLI + ["node", "start",
                                       "--config", str(config_path)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            assert line.startswith("fire-port: ")
            port = int(line.split(":")[1])
            result = run_cli("node", "status", "--node", f"127.0.0.1:{port}")
            assert result.returncode == 0
            assert "machines: 0" in result.stdout
            assert "store-size: 0" in result.stdout
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_start_missing_config_usage_error(self):
        result = run_cli("node", "start", "--config", "/no/such/file.xml")
        assert result.returncode == 2

    def test_start_bad_config_operational_error(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<NODECONFIG dataDir='x' digest='crc32'/>")
        result = run_cli("node", "start", "--config", str(bad))
        assert result.returncode == 1
        assert result.stdout.startswith("error:")

    def test_status_unreachable_node(self):
        result = run_cli("node", "status", "--node", "127.0.0.1:1")
        assert result.returncode == 1
        assert result.stdout.startswith("error:")

    def test_status_shows_machines(self, topology):
        from cingal import remote
        from conftest import make_signed
        node = topology.node(0)
        handle = remote.fire(node.address, serialize_bundle(
            make_signed(topology.deployer_key, DEPLOYER_ENTITY)))
        try:
            result = run_cli("node", "status", "--node", node.address)
            assert result.returncode == 0
            assert "machines: 1" in result.stdout
            assert f"entity:{DEPLOYER_ENTITY}" in result.stdout
        finally:
            handle.close()


class TestBundleSign:
    def test_sign_emits_verifiable_bundle(self, tmp_path):
        key, cert = generate_keypair()
        bundle_path = tmp_path / "unsigned.xml"
        bundle_path.write_bytes(serialize_bundle(make_bundle()))
        key_path = tmp_path / "signer.key"
        key_path.write_text(key)
        result = run_cli("bundle", "sign", "--bundle", str(bundle_path),
                         "--key", str(key_path), "--entity", "signer")
        assert result.returncode == 0
        signed = parse_bundle(result.stdout.strip().encode())
        assert signed.auth.entity == "signer"
        assert verify_bundle(signed, cert)

    def test_missing_key_file(self, tmp_path):
        bundle_path = tmp_path / "unsigned.xml"
        bundle_path.write_bytes(serialize_bundle(make_bundle()))
        result = run_cli("bundle", "sign", "--bundle", str(bundle_path),
                         "--key", "/no/such.key", "--entity", "e")
        assert result.returncode == 2


class TestEntityCommands:
    def test_add_then_remove(self, topology, tmp_path):
        key, cert = generate_keypair()
        cert_path = tmp_path / "guest.pem"
        cert_path.write_text(cert)
        admin_key_path = tmp_path / "admin.key"
        admin_key_path.write_text(topology.admin_key)
        node = topology.node(0)

        added = run_cli("entity", "add", "--node", node.address,
                        "--id", "guest", "--cert", str(cert_path),
                        "--rights", "STORE:GET",
                        "--signer-entity", "harness-admin",
                        "--signer-key", str(admin_key_path))
        assert added.returncode == 0, added.stdout + added.stderr
        assert "guest" in added.stdout

        removed = run_cli("entity", "remove", "--node", node.address,
                          "--id", "guest",
                          "--signer-entity", "harness-admin",
                          "--signer-key", str(admin_key_path))
        assert removed.returncode == 0

    def test_unauthorized_signer_fails(self, topology, tmp_path):
        # the deployer has no VER rights, so it cannot manage entities
        key_path = topology.base_dir / "deployer.key"
        cert_path = tmp_path / "x.pem"
        cert_path.write_text(generate_keypair()[1])
        result = run_cli("entity", "add", "--node",
                         topology.node(0).address,
                         "--id", "x", "--cert", str(cert_path),
                         "--rights", "STORE:GET",
                         "--signer-entity", DEPLOYER_ENTITY,
                         "--signer-key", str(key_path))
        assert result.returncode == 1
        assert "error:" in result.stdout


def write_ddd(topology, tmp_path):
    topology.write_component("server", "demo.Source", channel="Down")
    topology.write_component("cache", "demo.Sink", channel="Up")
    ddd_path = tmp_path / "app.xml"
    ddd_path.write_text(f"""
      <DDD name="App">
        <BUNDLES>
          <BUNDLE name="Server" source="{topology.bundle_paths['server']}"/>
          <BUNDLE name="Cache" source="{topology.bundle_paths['cache']}"/>
        </BUNDLES>
        <HOSTS>
          <HOST id="A" address="{topology.node(0).address}"/>
          <HOST id="B" address="{topology.node(1).address}"/>
        </HOSTS>
        <DEPLOYMENTS>
          <DEPLOYMENT name="Src" bundle="Server" target="A"/>
          <DEPLOYMENT name="Dst" bundle="Cache" target="B"/>
        </DEPLOYMENTS>
        <CONNECTIONS>
          <CONNECTION>
            <SOURCE deployment="Src" channel="Down"/>
            <DESTINATION deployment="Dst" channel="Up"/>
          </CONNECTION>
        </CONNECTIONS>
      </DDD>""")
    return ddd_path


class TestDeployCommands:
    def test_deploy_rewire_move(self, topology, tmp_path):
        ddd_path = write_ddd(topology, tmp_path)
        record_path = tmp_path / "record.xml"

        deployed = run_cli("deploy", "--ddd", str(ddd_path),
                           "--record", str(record_path),
                           *deployer_args(topology))
        assert deployed.returncode == 0, deployed.stdout + deployed.stderr
        lines = deployed.stdout.strip().splitlines()
        assert lines == ["phase:install node:A status:ok",
                         "phase:install node:B status:ok",
                         "phase:run node:A status:ok",
                         "phase:run node:B status:ok",
                         "phase:wire node:A status:ok"]
        record = DeploymentRecord.from_bytes(record_path.read_bytes())
        assert record.deployment_state("Src") == "wired"

        connections_path = tmp_path / "none.xml"
        connections_path.write_text("<CONNECTIONS/>")
        rewired = run_cli("rewire", "--record", str(record_path),
                          "--connections", str(connections_path),
                          *deployer_args(topology))
        assert rewired.returncode == 0, rewired.stdout + rewired.stderr
        record = DeploymentRecord.from_bytes(record_path.read_bytes())
        assert record.connections == {}
        assert record.deployment_state("Dst") == "running"

        moved = run_cli("move", "--record", str(record_path),
                        "--deployment", "Dst", "--host", "A",
                        *deployer_args(topology))
        assert moved.returncode == 0, moved.stdout + moved.stderr
        record = DeploymentRecord.from_bytes(record_path.read_bytes())
        assert record.deployments["Dst"].host == "A"

    def test_deploy_failure_exits_1_with_progress(self, topology, tmp_path):
        topology.write_component("server", "demo.Source", channel="Down")
        ddd_path = tmp_path / "doomed.xml"
        ddd_path.write_text(f"""
          <DDD name="Doomed">
            <BUNDLES>
              <BUNDLE name="Server"
                      source="{topology.bundle_paths['server']}"/>
            </BUNDLES>
            <HOSTS><HOST id="DEAD" address="127.0.0.1:1"/></HOSTS>
            <DEPLOYMENTS>
              <DEPLOYMENT name="Src" bundle="Server" target="DEAD"/>
            </DEPLOYMENTS>
            <CONNECTIONS/>
          </DDD>""")
        record_path = tmp_path / "record.xml"
        result = run_cli("deploy", "--ddd", str(ddd_path),
                         "--record", str(record_path),
                         *deployer_args(topology))
        assert result.returncode == 1
        assert "phase:install node:DEAD status:failed" in result.stdout
        assert "error:" in result.stdout
        # the partial record is still written for inspection
        record = DeploymentRecord.from_bytes(record_path.read_bytes())
        assert record.deployments["Src"].store_key is None

    def test_rewire_connection_without_destination(self, tmp_path):
        record_path = tmp_path / "record.xml"
        record_path.write_text('<DEPLOYMENTRECORD name="r"><HOSTS/>'
                               '<DEPLOYMENTS/><CONNECTIONS/>'
                               '</DEPLOYMENTRECORD>')
        connections_path = tmp_path / "half.xml"
        connections_path.write_text(
            '<CONNECTIONS><CONNECTION><SOURCE deployment="Src" '
            'channel="Down"/></CONNECTION></CONNECTIONS>')
        key_path = tmp_path / "deployer.key"
        key_path.write_text(generate_keypair()[0])
        result = run_cli("rewire", "--record", str(record_path),
                         "--connections", str(connections_path),
                         "--signer-entity", DEPLOYER_ENTITY,
                         "--signer-key", str(key_path))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        line, = result.stdout.strip().splitlines()
        assert line.startswith("error:") and "DESTINATION" in line

    def test_deploy_missing_ddd_usage_error(self, topology):
        result = run_cli("deploy", "--ddd", "/no/such/ddd.xml",
                         *deployer_args(topology))
        assert result.returncode == 2

    def test_no_command_usage_error(self):
        assert run_cli().returncode == 2
