"""Entity authentication and capability checks.

Two-level protection: bundles must be signed by an entity known to the
node's Valid Entity Repository (VER) before they are fired, and every
mediated store/binder/VER operation is then gated on the (service,
right) capabilities recorded for the machine's signing entity.

The signature covers the canonical bytes of the CODE section only; the
payload is deliberately outside the signed body. A node memoises checks
in a fixed-size ``SignatureMemo`` keyed on (certificate, SHA-256 of the
CODE bytes, signature). It stores successes only: a forged bundle pays
every time.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import threading
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import xmlcanon
from .bundle import Authentication, Bundle, code_section_bytes
from .errors import (
    CapabilityDenied,
    DuplicateEntity,
    EntityNotFound,
    InvalidKey,
    SchemaViolation,
)
from .xmlcanon import element


class Service(enum.Enum):
    STORE = "STORE"
    SBINDER = "SBINDER"
    PBINDER = "PBINDER"
    VER = "VER"
    FIRE = "FIRE"


class Right(enum.Enum):
    GET = "GET"
    PUT = "PUT"
    REMOVE = "REMOVE"
    FIRE = "FIRE"
    ADMIN = "ADMIN"


Rights = frozenset[tuple[Service, Right]]

ALL_RIGHTS: Rights = frozenset((s, Right.ADMIN) for s in Service)


def parse_rights(spec: str) -> Rights:
    """Parse a rights spec like ``STORE:PUT,GET;FIRE:FIRE``."""
    rights = set()
    for clause in filter(None, (c.strip() for c in spec.split(";"))):
        try:
            service_name, right_names = clause.split(":", 1)
            service = Service(service_name.strip().upper())
            for rn in right_names.split(","):
                rights.add((service, Right(rn.strip().upper())))
        except ValueError as exc:
            raise SchemaViolation(f"bad rights spec clause {clause!r}") from exc
    return frozenset(rights)


def format_rights(rights: Rights) -> str:
    by_service: dict[Service, list[Right]] = {}
    for service, right in rights:
        by_service.setdefault(service, []).append(right)
    return ";".join(
        f"{s.value}:{','.join(r.value for r in sorted(rs, key=lambda r: r.value))}"
        for s, rs in sorted(by_service.items(), key=lambda kv: kv[0].value))


# --- keys and signatures ------------------------------------------------

def generate_keypair() -> tuple[str, str]:
    """Return (private key PEM, public certificate PEM)."""
    key = Ed25519PrivateKey.generate()
    private_pem = key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ).decode("ascii")
    public_pem = key.public_key().public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    ).decode("ascii")
    return private_pem, public_pem


def _load_private(pem: str) -> Ed25519PrivateKey:
    try:
        key = serialization.load_pem_private_key(pem.encode("ascii"),
                                                 password=None)
    except (ValueError, TypeError) as exc:
        raise InvalidKey(str(exc)) from exc
    if not isinstance(key, Ed25519PrivateKey):
        raise InvalidKey("expected an Ed25519 private key")
    return key


def _load_public(pem: str) -> Ed25519PublicKey:
    try:
        key = serialization.load_pem_public_key(pem.encode("ascii"))
    except (ValueError, TypeError) as exc:
        raise InvalidKey(str(exc)) from exc
    if not isinstance(key, Ed25519PublicKey):
        raise InvalidKey("expected an Ed25519 public key")
    return key


def sign_bundle(b: Bundle, private_pem: str, entity: str) -> Bundle:
    """Sign the canonical CODE bytes; only AUTHENTICATION changes."""
    key = _load_private(private_pem)
    signature = key.sign(code_section_bytes(b))
    auth = Authentication(entity=entity,
                          signature=base64.b64encode(signature).decode("ascii"))
    return b.with_auth(auth)


def verify_bundle(b: Bundle, certificate_pem: str) -> bool:
    """True iff the signature validates over the canonical CODE bytes."""
    try:
        key = _load_public(certificate_pem)
        signature = base64.b64decode(b.auth.signature, validate=True)
        key.verify(signature, code_section_bytes(b))
        return True
    except (InvalidKey, InvalidSignature, ValueError):
        return False


SIGNATURE_MEMO_SIZE = 256


class SignatureMemo:
    """verify_bundle behind a memo of the last SIGNATURE_MEMO_SIZE checks
    that passed. Keys hash the CODE bytes, so each entry has a fixed size."""

    def __init__(self):
        self._passed: dict[tuple[str, bytes, str], None] = {}
        self._lock = threading.Lock()

    def verify(self, b: Bundle, certificate_pem: str) -> bool:
        key = (certificate_pem, hashlib.sha256(code_section_bytes(b)).digest(),
               b.auth.signature)
        if key in self._passed:
            return True
        if not verify_bundle(b, certificate_pem):
            return False
        with self._lock:
            self._passed[key] = None
            while len(self._passed) > SIGNATURE_MEMO_SIZE:
                del self._passed[next(iter(self._passed))]
        return True

    def __len__(self) -> int:
        return len(self._passed)


# --- the Valid Entity Repository ---------------------------------------

class EntityRecord:
    def __init__(self, entity: str, certificate: str, rights: Rights):
        if not entity:
            raise SchemaViolation("entity id must be non-empty")
        _load_public(certificate)  # must parse as a valid public key
        self.entity = entity
        self.certificate = certificate
        self.rights = frozenset(rights)


class VER:
    """Per-node registry of trusted entities, certificates and rights."""

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._records: dict[str, EntityRecord] = {}
        self._lock = threading.Lock()
        if self._path is not None and self._path.exists():
            self._load()

    def add(self, rec: EntityRecord, caller: str | None = None) -> None:
        """Register an entity. ``caller=None`` is the node bootstrap path."""
        if caller is not None and not self.check(caller, Service.VER, Right.PUT):
            raise CapabilityDenied(f"{caller} lacks VER:PUT")
        with self._lock:
            if rec.entity in self._records:
                raise DuplicateEntity(rec.entity)
            self._records[rec.entity] = rec
        self._persist()

    def remove(self, entity: str, caller: str | None = None) -> None:
        if caller is not None and not self.check(caller, Service.VER,
                                                 Right.REMOVE):
            raise CapabilityDenied(f"{caller} lacks VER:REMOVE")
        with self._lock:
            if entity not in self._records:
                raise EntityNotFound(entity)
            del self._records[entity]
        self._persist()

    def lookup(self, entity: str) -> EntityRecord:
        with self._lock:
            try:
                return self._records[entity]
            except KeyError:
                raise EntityNotFound(entity) from None

    def __contains__(self, entity: str) -> bool:
        with self._lock:
            return entity in self._records

    def check(self, entity: str, service: Service, right: Right) -> bool:
        """Capability check; unknown entities are denied, never an error."""
        rec = self._records.get(entity)
        return rec is not None and (
            (service, right) in rec.rights or (service, Right.ADMIN) in rec.rights)

    def require(self, entity: str, service: Service, right: Right) -> None:
        if not self.check(entity, service, right):
            raise CapabilityDenied(
                f"{entity} lacks {service.value}:{right.value}")

    def entities(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    # --- persistence ----------------------------------------------------

    def _persist(self) -> None:
        if self._path is None:
            return
        with self._lock:
            entity_els = []
            for rec in self._records.values():
                children = [element("CERTIFICATE", text=rec.certificate)]
                children += [
                    element("RIGHT", {"service": s.value, "right": r.value})
                    for s, r in sorted(rec.rights,
                                       key=lambda sr: (sr[0].value, sr[1].value))
                ]
                entity_els.append(element("ENTITY", {"id": rec.entity},
                                          children=children))
            # under the lock, so the last write holds the newest state
            self._path.write_bytes(
                xmlcanon.canonical_bytes(element("VER", children=entity_els)))

    def _load(self) -> None:
        root = xmlcanon.parse_document(self._path.read_bytes())
        for ent in root.findall("ENTITY"):
            cert_el = ent.find("CERTIFICATE")
            rights = frozenset(
                (Service(r.get("service")), Right(r.get("right")))
                for r in ent.findall("RIGHT"))
            rec = EntityRecord(ent.get("id", ""),
                               (cert_el.text or "").strip() + "\n",
                               rights)
            self._records[rec.entity] = rec
