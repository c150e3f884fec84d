"""The tracer's export as it stood before rows and templates, as an oracle.

:class:`ReferenceTrace` is ``repro.obs.tracer.Tracer``'s retained store
and exporter before entries became shape-keyed rows: one
``(kind, name, t, duration_s, fields)`` tuple per entry, each holding
its kwargs dict, turned into schema dicts by ``_raw_entries`` and
written line by line by the one ``json.JSONEncoder`` (test-only: no
oracle lives under ``src/``).  It subscribes as a sink, so it sees
exactly the payloads the tracer is handed.
``tests/test_tracer_export_equivalence.py`` requires ``to_jsonl()``
byte-equal and ``entries()`` equal between the two.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

__all__ = ["ReferenceTrace", "reference_encoder"]


def _jsonable(value: Any) -> Any:
    """Coerce payload values to deterministic JSON-friendly forms."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _encode_set(value: Any) -> list:
    """Encoder hook for the one payload type JSON has no form for."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def reference_encoder() -> json.JSONEncoder:
    """A fresh copy of the export encoder (compact, key-sorted)."""
    return json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=_encode_set)


_ENCODER = reference_encoder()


class ReferenceTrace:
    """A tracer sink keeping every entry as the old tracer did."""

    def __init__(self) -> None:
        #: (kind, name, t, duration_s | None, fields)
        self._entries: list[tuple] = []

    def __call__(self, kind: str, name: str, t: float,
                 duration_s: "float | None", fields: dict) -> None:
        self._entries.append((kind, name, t, duration_s, fields))

    def __len__(self) -> int:
        return len(self._entries)

    def _raw_entries(self) -> Iterator[dict]:
        """Entries in the JSONL schema, payloads as recorded."""
        for seq, (kind, name, t, duration_s, fields) in \
                enumerate(self._entries):
            entry: dict[str, Any] = {
                "seq": seq, "t": t, "kind": kind, "name": name}
            if duration_s is not None:
                entry["duration_s"] = duration_s
            if fields:
                entry["fields"] = fields
            yield entry

    def entries(self) -> Iterator[dict]:
        """Yield entries as dicts (the JSONL schema, pre-serialization)."""
        for entry in self._raw_entries():
            if "fields" in entry:
                entry["fields"] = {
                    k: _jsonable(v)
                    for k, v in sorted(entry["fields"].items())}
            yield entry

    def to_jsonl(self) -> str:
        """One compact, key-sorted JSON object per line."""
        return "\n".join(map(_ENCODER.encode, self._raw_entries()))
