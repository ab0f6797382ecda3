"""Operator command line: run nodes, sign bundles, manage entities,
deploy and evolve applications, and query node status.

Exit codes: 0 success, 1 operational failure, 2 usage error. Every
operational failure prints a single ``error:``-prefixed line.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from . import remote
from .bundle import parse_bundle, serialize_bundle
from .documents import read_report
from .engine import DeploymentRecord, Engine, parse_connections, parse_ddd
from .errors import CingalError, PhaseFailed
from .machine import entity_bundle
from .node import NodeConfig, ThinServer
from .security import sign_bundle


def _read(path: str, parser: argparse.ArgumentParser) -> bytes:
    p = Path(path)
    if not p.is_file():
        parser.error(f"no such file: {path}")
    return p.read_bytes()


def _fail(message: str) -> int:
    print(f"error: {message}")
    return 1


def cmd_node_start(args, parser) -> int:
    _read(args.config, parser)
    try:
        config = NodeConfig.from_file(args.config)
        server = ThinServer.start(config)
    except CingalError as exc:
        return _fail(str(exc))
    print(f"fire-port: {server.fire_port}", flush=True)
    threading.Event().wait()  # serve until killed
    return 0


def cmd_node_status(args, parser) -> int:
    try:
        status = remote.node_status(args.node)
    except CingalError as exc:
        return _fail(str(exc))
    print(f"machines: {status.get('machines')}")
    print(f"store-size: {status.get('storeSize')}")
    for m in status.findall("MACHINE"):
        conn = m.find("CONNECTOR")
        where = (f"{conn.get('host')}:{conn.get('machinePort')}:"
                 f"{conn.get('resourcePort')}" if conn is not None else "-")
        print(f"machine: {m.get('id')} entity:{m.get('entity')} "
              f"state:{m.get('state')} connector:{where}")
        for ch in m.findall("CHANNEL"):
            print(f"  channel: {ch.get('name')} {ch.get('state')}")
    return 0


def cmd_bundle_sign(args, parser) -> int:
    doc = _read(args.bundle, parser)
    key = _read(args.key, parser).decode("ascii")
    try:
        signed = sign_bundle(parse_bundle(doc), key, args.entity)
    except CingalError as exc:
        return _fail(str(exc))
    sys.stdout.buffer.write(serialize_bundle(signed) + b"\n")
    return 0


def cmd_entity(args, parser) -> int:
    signer_key = _read(args.signer_key, parser).decode("ascii")
    cert = ""
    if args.action == "add":
        if not args.cert or not args.rights:
            parser.error("entity add requires --cert and --rights")
        cert = _read(args.cert, parser).decode("ascii")
    unsigned = entity_bundle(args.action, args.id, cert, args.rights)
    try:
        signed = sign_bundle(unsigned, signer_key, args.signer_entity)
        report = read_report(remote.fire(args.node, serialize_bundle(signed)),
                             15.0)
    except CingalError as exc:
        return _fail(str(exc))
    if not report.all_ok:
        detail = ",".join(f"{k}={v}" for r in report.results for k, v in r.info)
        return _fail(f"entity {args.action} failed: {detail}")
    print(f"entity: {args.id} {args.action}ed")
    return 0


def _make_engine(args, parser) -> Engine:
    key = _read(args.signer_key, parser).decode("ascii")
    kwargs = {}
    if getattr(args, "catalogue", None):
        kwargs["catalogue"] = args.catalogue
    if getattr(args, "fire_port", None):
        kwargs["default_fire_port"] = args.fire_port
    if getattr(args, "digest", None):
        kwargs["digest"] = args.digest
    return Engine(args.signer_entity, key, **kwargs)


def _finish_engine_op(engine: Engine, record, out_path: str | None,
                      error: PhaseFailed | None) -> int:
    for line in engine.progress:
        print(line)
    if out_path and record is not None:
        Path(out_path).write_bytes(record.to_bytes())
    if error is not None:
        return _fail(str(error))
    return 0


def cmd_deploy(args, parser) -> int:
    engine = _make_engine(args, parser)
    try:
        ddd = parse_ddd(_read(args.ddd, parser))
    except CingalError as exc:
        return _fail(str(exc))
    record, error = None, None
    try:
        record = engine.deploy(ddd)
    except PhaseFailed as exc:
        record, error = exc.record, exc
    except CingalError as exc:
        return _fail(str(exc))
    return _finish_engine_op(engine, record, args.record, error)


def cmd_rewire(args, parser) -> int:
    engine = _make_engine(args, parser)
    try:
        record = DeploymentRecord.from_bytes(_read(args.record, parser))
        connections = parse_connections(_read(args.connections, parser))
    except CingalError as exc:
        return _fail(str(exc))
    error = None
    try:
        record = engine.rewire(record, connections)
    except PhaseFailed as exc:
        record, error = exc.record, exc
    return _finish_engine_op(engine, record,
                             args.record_out or args.record, error)


def cmd_move(args, parser) -> int:
    engine = _make_engine(args, parser)
    try:
        record = DeploymentRecord.from_bytes(_read(args.record, parser))
    except CingalError as exc:
        return _fail(str(exc))
    error = None
    try:
        record = engine.move_component(record, args.deployment, args.host)
    except PhaseFailed as exc:
        record, error = exc.record, exc
    except CingalError as exc:
        return _fail(str(exc))
    return _finish_engine_op(engine, record,
                             args.record_out or args.record, error)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cingal")
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("node", help="run or query a node daemon")
    node_sub = node.add_subparsers(dest="node_command", required=True)
    start = node_sub.add_parser("start")
    start.add_argument("--config", required=True)
    status = node_sub.add_parser("status")
    status.add_argument("--node", required=True, metavar="ADDR:PORT")

    bundle = sub.add_parser("bundle", help="bundle utilities")
    bundle_sub = bundle.add_subparsers(dest="bundle_command", required=True)
    sign = bundle_sub.add_parser("sign")
    sign.add_argument("--bundle", required=True)
    sign.add_argument("--key", required=True, help="private key PEM path")
    sign.add_argument("--entity", required=True)

    entity = sub.add_parser("entity", help="manage a node's trusted entities")
    entity.add_argument("action", choices=["add", "remove"])
    entity.add_argument("--node", required=True, metavar="ADDR:PORT")
    entity.add_argument("--id", required=True)
    entity.add_argument("--cert", help="certificate PEM path (add)")
    entity.add_argument("--rights", help="e.g. STORE:PUT,GET;FIRE:FIRE")
    entity.add_argument("--signer-entity", required=True)
    entity.add_argument("--signer-key", required=True)

    def engine_args(p, catalogue=True):
        p.add_argument("--signer-entity", required=True)
        p.add_argument("--signer-key", required=True)
        if catalogue:
            p.add_argument("--catalogue")
        p.add_argument("--fire-port", type=int)
        p.add_argument("--digest", choices=["md5", "sha256"])

    deploy = sub.add_parser("deploy", help="enact a DDD")
    deploy.add_argument("--ddd", required=True)
    deploy.add_argument("--record", help="write the deployment record here")
    engine_args(deploy)

    rewire = sub.add_parser("rewire", help="change the connection topology")
    rewire.add_argument("--record", required=True)
    rewire.add_argument("--connections", required=True,
                        help="CONNECTIONS document with the new set")
    rewire.add_argument("--record-out")
    engine_args(rewire, catalogue=False)

    move = sub.add_parser("move", help="move a component to another host")
    move.add_argument("--record", required=True)
    move.add_argument("--deployment", required=True)
    move.add_argument("--host", required=True)
    move.add_argument("--record-out")
    engine_args(move)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "node":
        if args.node_command == "start":
            return cmd_node_start(args, parser)
        return cmd_node_status(args, parser)
    if args.command == "bundle":
        return cmd_bundle_sign(args, parser)
    if args.command == "entity":
        return cmd_entity(args, parser)
    if args.command == "deploy":
        return cmd_deploy(args, parser)
    if args.command == "rewire":
        return cmd_rewire(args, parser)
    if args.command == "move":
        return cmd_move(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
