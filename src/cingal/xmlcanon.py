"""Canonical XML reading and writing.

Signatures and store keys are digests over document bytes, so every
document the framework emits must have exactly one byte representation:
UTF-8, no XML declaration, no indentation, LF-free single line, a fixed
attribute order for known elements, and text nodes stripped of leading
and trailing whitespace (internal whitespace is significant and kept).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .errors import MalformedDocument

# Attribute emission order for elements of the framework's schemas.
# Elements not listed keep their document/insertion attribute order.
_ATTR_ORDER: dict[str, tuple[str, ...]] = {
    "AUTHENTICATION": ("entity", "signature"),
    "CODE": ("entry", "type"),
    "CLASS": ("name",),
    "DATUM": ("id",),
    "TASK": ("guid", "type"),
    "CONNECTOR": ("host", "machinePort", "resourcePort"),
    "TASKRESULT": ("guid", "status"),
    "INFO": ("key",),
    "DDD": ("name",),
    "BUNDLE": ("name", "source"),
    "HOST": ("id", "address"),
    "DEPLOYMENT": ("name", "bundle", "target"),
    "SOURCE": ("deployment", "channel"),
    "DESTINATION": ("deployment", "channel"),
    "REQUEST": ("op", "name", "host", "port", "timeout"),
    "RESPONSE": ("status", "port", "error", "value"),
    "FIRERESULT": ("status", "error"),
    "ENTITY": ("id",),
    "RIGHT": ("service", "right"),
    "BINDING": ("name", "value"),
    "MACHINE": ("id", "entity", "state"),
    "CHANNEL": ("name", "state"),
    "STATUS": ("machines", "storeSize"),
}

# Child element emission order for elements whose children are reordered
# into schema order on output.
_CHILD_ORDER: dict[str, tuple[str, ...]] = {
    "BUNDLE": ("AUTHENTICATION", "CODE", "DATA"),
    "DDD": ("BUNDLES", "HOSTS", "DEPLOYMENTS", "CONNECTIONS"),
    "CONNECTION": ("SOURCE", "DESTINATION"),
}


def _esc_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _esc_attr(s: str) -> str:
    return _esc_text(s).replace('"', "&quot;")


def _ordered_attrs(elem: ET.Element) -> list[tuple[str, str]]:
    declared = _ATTR_ORDER.get(elem.tag)
    items = list(elem.attrib.items())
    if declared is None:
        return items
    ranked = {name: i for i, name in enumerate(declared)}
    return sorted(items, key=lambda kv: (ranked.get(kv[0], len(ranked)), kv[0]))

def _ordered_children(elem: ET.Element) -> list[ET.Element]:
    declared = _CHILD_ORDER.get(elem.tag)
    children = list(elem)
    if declared is None:
        return children
    ranked = {name: i for i, name in enumerate(declared)}
    return sorted(children, key=lambda c: ranked.get(c.tag, len(ranked)))


def canonical(elem: ET.Element) -> str:
    """Render an element tree to its canonical string form."""
    parts = [f"<{elem.tag}"]
    for name, value in _ordered_attrs(elem):
        parts.append(f' {name}="{_esc_attr(value)}"')
    inner = canonical_inner(elem)
    if inner:
        parts.append(f">{inner}</{elem.tag}>")
    else:
        parts.append("/>")
    return "".join(parts)


def canonical_inner(elem: ET.Element) -> str:
    """Canonical form of an element's content (text and child elements)."""
    parts = []
    text = (elem.text or "").strip()
    if text:
        parts.append(_esc_text(text))
    for child in _ordered_children(elem):
        parts.append(canonical(child))
        tail = (child.tail or "").strip()
        if tail:
            parts.append(_esc_text(tail))
    return "".join(parts)


def canonical_bytes(elem: ET.Element) -> bytes:
    return canonical(elem).encode("utf-8")


def parse_document(doc: bytes | str) -> ET.Element:
    """Parse document bytes, raising MalformedDocument on any parse error."""
    if isinstance(doc, bytes):
        try:
            doc = doc.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(str(exc)) from exc
    try:
        return ET.fromstring(doc)
    except ET.ParseError as exc:
        raise MalformedDocument(str(exc)) from exc


def element(tag: str, attrib: dict[str, str] | None = None,
            children: list[ET.Element] | None = None,
            text: str | None = None) -> ET.Element:
    """Convenience builder for canonical output trees."""
    e = ET.Element(tag, attrib or {})
    if text is not None:
        e.text = text
    for child in children or []:
        e.append(child)
    return e
