import base64
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cingal import security as security_module
from cingal.errors import (
    CapabilityDenied,
    DuplicateEntity,
    EntityNotFound,
    InvalidKey,
)
from cingal.security import (
    VER,
    EntityRecord,
    Right,
    Service,
    SignatureMemo,
    format_rights,
    parse_rights,
    sign_bundle,
    verify_bundle,
)
from conftest import make_bundle


@pytest.fixture
def ver(keypair):
    _, cert = keypair
    v = VER()
    v.add(EntityRecord("admin", cert, parse_rights(
        "VER:PUT,REMOVE;FIRE:FIRE")))
    return v


class TestSigning:
    def test_sign_then_verify(self, keypair):
        key, cert = keypair
        signed = sign_bundle(make_bundle(), key, "e1")
        assert signed.auth.entity == "e1"
        assert verify_bundle(signed, cert)

    def test_sign_touches_only_authentication(self, keypair):
        key, _ = keypair
        b = make_bundle()
        signed = sign_bundle(b, key, "e1")
        assert signed.code == b.code
        assert signed.data == b.data

    def test_tampered_code_fails(self, keypair):
        key, cert = keypair
        signed = sign_bundle(make_bundle(), key, "e1")
        (name, blob) = signed.code.units[0]
        tampered_blob = base64.b64encode(b"XODE").decode()
        tampered = replace(signed,
                           code=replace(signed.code,
                                        units=((name, tampered_blob),)))
        assert not verify_bundle(tampered, cert)

    def test_wrong_certificate_fails(self, keypair, second_keypair):
        key, _ = keypair
        _, other_cert = second_keypair
        signed = sign_bundle(make_bundle(), key, "e1")
        assert not verify_bundle(signed, other_cert)

    def test_data_not_covered_by_signature(self, keypair):
        # documented consequence of the signature scope: payload tampering
        # is not signature-detected
        from cingal.bundle import Datum
        key, cert = keypair
        signed = sign_bundle(make_bundle(), key, "e1")
        mutated = signed.with_data([Datum("extra", "sneaky")])
        assert verify_bundle(mutated, cert)

    def test_garbage_signature_is_false_not_error(self, keypair):
        _, cert = keypair
        b = make_bundle()  # carries the placeholder signature "none"
        assert not verify_bundle(b, cert)

    def test_bad_private_key(self):
        with pytest.raises(InvalidKey):
            sign_bundle(make_bundle(), "not a pem", "e1")

    def test_resigning_still_verifies(self, keypair):
        key, cert = keypair
        first = sign_bundle(make_bundle(), key, "e1")
        second = sign_bundle(first, key, "e1")
        assert verify_bundle(second, cert)


class TestVer:
    def test_add_and_lookup(self, ver, second_keypair):
        _, cert = second_keypair
        rec = EntityRecord("19730129df7447eb91509", cert,
                           parse_rights("STORE:PUT"))
        ver.add(rec, caller="admin")
        assert ver.lookup("19730129df7447eb91509") is rec

    def test_duplicate_entity(self, ver, second_keypair):
        _, cert = second_keypair
        ver.add(EntityRecord("e", cert, frozenset()), caller="admin")
        with pytest.raises(DuplicateEntity):
            ver.add(EntityRecord("e", cert, frozenset()), caller="admin")

    def test_add_without_right(self, ver, second_keypair):
        _, cert = second_keypair
        ver.add(EntityRecord("weak", cert, frozenset()), caller="admin")
        with pytest.raises(CapabilityDenied):
            ver.add(EntityRecord("x", cert, frozenset()), caller="weak")

    def test_remove(self, ver, second_keypair):
        _, cert = second_keypair
        ver.add(EntityRecord("gone", cert, frozenset()), caller="admin")
        ver.remove("gone", caller="admin")
        with pytest.raises(EntityNotFound):
            ver.lookup("gone")

    def test_remove_unknown(self, ver):
        with pytest.raises(EntityNotFound):
            ver.remove("never-there", caller="admin")

    def test_persistence(self, tmp_path, keypair):
        _, cert = keypair
        path = tmp_path / "ver.doc"
        v = VER(path)
        v.add(EntityRecord("e1", cert, parse_rights("STORE:PUT,GET")))
        reloaded = VER(path)
        rec = reloaded.lookup("e1")
        assert rec.rights == parse_rights("STORE:PUT,GET")
        assert verify_bundle(
            sign_bundle(make_bundle(), keypair[0], "e1"), rec.certificate)

    def test_concurrent_changes_leave_newest_on_disk(
            self, tmp_path, keypair, second_keypair, monkeypatch):
        path = tmp_path / "ver.doc"
        v = VER(path)
        rights = parse_rights("FIRE:FIRE")
        real_write = Path.write_bytes
        first_started = threading.Event()

        def slow_first_write(self, data):
            if self == path and not first_started.is_set():
                first_started.set()
                time.sleep(0.3)  # a concurrent add overtakes this write
            return real_write(self, data)

        monkeypatch.setattr(Path, "write_bytes", slow_first_write)
        t = threading.Thread(target=v.add,
                             args=(EntityRecord("a", keypair[1], rights),))
        t.start()
        assert first_started.wait(5.0)
        v.add(EntityRecord("b", second_keypair[1], rights))
        t.join(5.0)
        assert not t.is_alive()
        assert VER(path).entities() == v.entities() == ["a", "b"]


class TestCapabilities:
    def test_allow_granted(self, ver, second_keypair):
        _, cert = second_keypair
        ver.add(EntityRecord("e", cert, parse_rights("STORE:PUT")),
                caller="admin")
        assert ver.check("e", Service.STORE, Right.PUT)

    def test_deny_ungranted(self, ver, second_keypair):
        _, cert = second_keypair
        ver.add(EntityRecord("e", cert, parse_rights("STORE:PUT")),
                caller="admin")
        assert not ver.check("e", Service.STORE, Right.REMOVE)

    def test_deny_unknown_entity(self, ver):
        assert not ver.check("stranger", Service.STORE, Right.GET)

    def test_admin_right_implies_all_on_service(self, ver, second_keypair):
        _, cert = second_keypair
        ver.add(EntityRecord("boss", cert, parse_rights("STORE:ADMIN")),
                caller="admin")
        for right in (Right.GET, Right.PUT, Right.REMOVE):
            assert ver.check("boss", Service.STORE, right)

    def test_removal_is_monotone_denial(self, ver, second_keypair):
        _, cert = second_keypair
        ver.add(EntityRecord("e", cert, parse_rights("STORE:PUT,GET")),
                caller="admin")
        before = {(s, r): ver.check("e", s, r)
                  for s in Service for r in Right}
        ver.remove("e", caller="admin")
        after = {(s, r): ver.check("e", s, r)
                 for s in Service for r in Right}
        assert all(not after[k] or before[k] for k in before)
        assert not any(after.values())


class TestRightsSpec:
    def test_round_trip(self):
        spec = "FIRE:FIRE;STORE:GET,PUT"
        assert format_rights(parse_rights(spec)) == spec

    def test_bad_spec(self):
        from cingal.errors import SchemaViolation
        with pytest.raises(SchemaViolation):
            parse_rights("STORE=PUT")


class TestSignatureMemo:
    def test_holds_at_most_its_size(self, keypair, monkeypatch):
        key, cert = keypair
        monkeypatch.setattr(security_module, "SIGNATURE_MEMO_SIZE", 4)
        memo = SignatureMemo()
        bundles = [sign_bundle(make_bundle(entry=f"e.N{i}"), key, "e1")
                   for i in range(10)]
        for b in bundles:
            assert memo.verify(b, cert)
            assert len(memo) <= 4
        assert len(memo) == 4
        # an evicted signature still verifies, by the full check
        assert memo.verify(bundles[0], cert)
        assert len(memo) == 4

    def test_stores_successes_only(self, keypair, second_keypair):
        key, cert = keypair
        memo = SignatureMemo()
        forged = sign_bundle(make_bundle(), second_keypair[0], "e1")
        assert not memo.verify(forged, cert)
        assert not memo.verify(forged, cert)
        assert len(memo) == 0
        signed = sign_bundle(make_bundle(), key, "e1")
        assert memo.verify(signed, cert)
        assert not memo.verify(signed, second_keypair[1])
        assert len(memo) == 1

    def test_entries_do_not_grow_with_code_size(self, keypair):
        key, cert = keypair
        memo = SignatureMemo()
        for size in (4, 1 << 20):
            unit = base64.b64encode(b"x" * size).decode()
            assert memo.verify(sign_bundle(
                make_bundle(units=(("unit", unit),)), key, "e1"), cert)
        small, large = (sum(len(part) for part in key)
                        for key in memo._passed)
        assert small == large
