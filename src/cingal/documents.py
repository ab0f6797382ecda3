"""To-do lists and task reports: the control documents carried by tools.

A to-do list rides inside a tool bundle's ``ToDoList`` datum and names
the tasks the tool performs on arrival. The task report is the per-task
outcome document the tool writes back over its default channel, where
``read_report`` takes it.

Schemas: TODOLIST > TASK@guid@type > DATUM@id*
         TASKREPORT > TASKRESULT@guid@status > INFO@key (text value)
"""

from __future__ import annotations

from dataclasses import dataclass

from . import xmlcanon
from .bundle import Datum, _inject_content
from .errors import SchemaViolation
from .xmlcanon import element

TASK_TYPES = ("INSTALL", "RUN", "WIRE")

STATUS_OK = "OK"
STATUS_FAILED = "FAILED"


@dataclass(frozen=True)
class Task:
    guid: str  # opaque task identifier (not digest-validated)
    type: str
    datums: tuple[Datum, ...] = ()

    def has_datum(self, datum_id: str) -> bool:
        return any(d.id == datum_id for d in self.datums)

    def datum_text(self, datum_id: str) -> str:
        for d in self.datums:
            if d.id == datum_id:
                return d.content
        raise SchemaViolation(f"task {self.guid} lacks datum {datum_id!r}")


@dataclass(frozen=True)
class ToDoList:
    tasks: tuple[Task, ...] = ()


def todolist_from_content(content: str) -> ToDoList:
    root = xmlcanon.parse_document(content)
    if root.tag != "TODOLIST":
        raise SchemaViolation(f"expected TODOLIST, got {root.tag}")
    tasks = []
    seen = set()
    for task_el in root.findall("TASK"):
        guid = task_el.get("guid", "")
        if not guid or guid in seen:
            raise SchemaViolation(f"missing or duplicate task guid: {guid!r}")
        seen.add(guid)
        datums = tuple(
            Datum(id=d.get("id", ""), content=xmlcanon.canonical_inner(d))
            for d in task_el.findall("DATUM"))
        task_type = task_el.get("type", "")
        if task_type not in TASK_TYPES:
            raise SchemaViolation(f"unknown task type: {task_type!r}")
        tasks.append(Task(guid=guid, type=task_type, datums=datums))
    return ToDoList(tasks=tuple(tasks))


def todolist_to_element(todo: ToDoList):
    task_els = []
    for t in todo.tasks:
        datum_els = []
        for d in t.datums:
            el = element("DATUM", {"id": d.id})
            _inject_content(el, d.content)
            datum_els.append(el)
        task_els.append(element("TASK", {"guid": t.guid, "type": t.type},
                                children=datum_els))
    return element("TODOLIST", children=task_els)


def todolist_content(todo: ToDoList) -> str:
    """Canonical content string, suitable for a ``ToDoList`` datum."""
    return xmlcanon.canonical(todolist_to_element(todo))


@dataclass(frozen=True)
class TaskResult:
    guid: str
    status: str  # OK | FAILED
    info: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def info_value(self, key: str) -> str:
        for k, v in self.info:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class TaskReport:
    results: tuple[TaskResult, ...] = ()

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)


def report_to_bytes(report: TaskReport) -> bytes:
    result_els = []
    for r in report.results:
        info_els = [element("INFO", {"key": k}, text=v or None)
                    for k, v in r.info]
        result_els.append(element(
            "TASKRESULT", {"guid": r.guid, "status": r.status},
            children=info_els))
    return xmlcanon.canonical_bytes(element("TASKREPORT", children=result_els))


def report_from_bytes(doc: bytes | str) -> TaskReport:
    root = xmlcanon.parse_document(doc)
    if root.tag != "TASKREPORT":
        raise SchemaViolation(f"expected TASKREPORT, got {root.tag}")
    results = []
    for res_el in root.findall("TASKRESULT"):
        info = tuple((i.get("key", ""), (i.text or "").strip())
                     for i in res_el.findall("INFO"))
        results.append(TaskResult(guid=res_el.get("guid", ""),
                                  status=res_el.get("status", ""),
                                  info=info))
    return TaskReport(results=tuple(results))


def read_report(handle, timeout: float) -> TaskReport:
    """The task report a fired tool writes on its default channel
    ``handle``, read within ``timeout`` seconds; closes the handle."""
    try:
        return report_from_bytes(handle.read(timeout=timeout))
    finally:
        handle.close()
