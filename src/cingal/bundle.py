"""The bundle document format.

A bundle is the only deployable unit: a passive, signed closure of code
(an entry point plus named base64 units) and a payload of named datums.
Nothing in this module executes code; datum contents are preserved as
opaque canonical text so bundles can carry other bundles verbatim.

Schema: BUNDLE > { AUTHENTICATION@entity@signature,
                   CODE@entry@type > CLASS@name*,
                   DATA > DATUM@id* }
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import xmlcanon
from .errors import DatumNotFound, SchemaViolation
from .xmlcanon import element


@dataclass(frozen=True)
class Authentication:
    entity: str
    signature: str


@dataclass(frozen=True)
class CodeSection:
    entry: str
    code_type: str
    units: tuple[tuple[str, str], ...] = ()  # (unit name, base64 content)


@dataclass(frozen=True)
class Datum:
    """A named payload item; ``content`` is canonical inner XML or text."""

    id: str
    content: str = ""


@dataclass(frozen=True)
class Bundle:
    auth: Authentication
    code: CodeSection
    data: tuple[Datum, ...] = ()

    def datum(self, datum_id: str) -> Datum:
        for d in self.data:
            if d.id == datum_id:
                return d
        raise DatumNotFound(datum_id)

    def has_datum(self, datum_id: str) -> bool:
        return any(d.id == datum_id for d in self.data)

    def with_auth(self, auth: Authentication) -> "Bundle":
        return replace(self, auth=auth)

    def with_data(self, data: list[Datum]) -> "Bundle":
        return replace(self, data=tuple(data))


def parse_bundle(doc) -> Bundle:
    """Parse a bundle document, given as bytes, text or its already
    parsed root element; nested bundles in datums stay verbatim."""
    root = (xmlcanon.parse_document(doc) if isinstance(doc, (bytes, str))
            else doc)
    if root.tag != "BUNDLE":
        raise SchemaViolation(f"expected BUNDLE root, got {root.tag}")

    auth_el = root.find("AUTHENTICATION")
    if auth_el is None:
        raise SchemaViolation("missing AUTHENTICATION element")
    auth = Authentication(
        entity=auth_el.get("entity", ""),
        signature=auth_el.get("signature", ""),
    )

    code_el = root.find("CODE")
    if code_el is None:
        raise SchemaViolation("missing CODE element")
    entry = code_el.get("entry", "")
    if not entry:
        raise SchemaViolation("CODE element lacks a non-empty entry attribute")
    units = []
    seen_units = set()
    for cls in code_el.findall("CLASS"):
        name = cls.get("name", "")
        if name in seen_units:
            raise SchemaViolation(f"duplicate code unit name: {name}")
        seen_units.add(name)
        units.append((name, (cls.text or "").strip()))
    code = CodeSection(entry=entry, code_type=code_el.get("type", ""),
                       units=tuple(units))

    datums = []
    seen_ids = set()
    data_el = root.find("DATA")
    if data_el is not None:
        for datum_el in data_el.findall("DATUM"):
            datum_id = datum_el.get("id", "")
            if datum_id in seen_ids:
                raise SchemaViolation(f"duplicate datum id: {datum_id}")
            seen_ids.add(datum_id)
            datums.append(Datum(id=datum_id,
                                content=xmlcanon.canonical_inner(datum_el)))

    return Bundle(auth=auth, code=code, data=tuple(datums))


def code_element(code: CodeSection):
    children = [element("CLASS", {"name": name}, text=content or None)
                for name, content in code.units]
    return element("CODE", {"entry": code.entry, "type": code.code_type},
                   children=children)


def bundle_to_element(b: Bundle):
    datum_els = []
    for d in b.data:
        el = element("DATUM", {"id": d.id})
        _inject_content(el, d.content)
        datum_els.append(el)
    return element("BUNDLE", children=[
        element("AUTHENTICATION",
                {"entity": b.auth.entity, "signature": b.auth.signature}),
        code_element(b.code),
        element("DATA", children=datum_els),
    ])


def _inject_content(el, content: str) -> None:
    # Datum content is already canonical XML text/markup; round-trip it
    # through the parser so we re-emit structure instead of escaping it.
    if not content:
        return
    wrapper = xmlcanon.parse_document(f"<X>{content}</X>")
    el.text = wrapper.text
    el.extend(list(wrapper))


def serialize_bundle(b: Bundle) -> bytes:
    """Deterministic canonical bytes; parse_bundle inverts this exactly."""
    return xmlcanon.canonical_bytes(bundle_to_element(b))


def code_section_bytes(b: Bundle) -> bytes:
    """Canonical bytes of the CODE section only: the signed body."""
    return xmlcanon.canonical_bytes(code_element(b.code))


def nested_bundle(d: Datum) -> Bundle:
    """Re-parse a datum whose content is an embedded bundle document."""
    return parse_bundle(d.content)
