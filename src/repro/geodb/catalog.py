"""Metadata catalog: database-resident documents.

The paper stores *inside the database* both the interface objects library
(§3.2: widgets "can be inserted, updated and removed dynamically") and the
customization rules (§3.4: "Customization rules stored in the database are
derived from assertives written in this language"). The catalog is the
persistence surface for those artifacts, plus schema descriptions.

It is a tiny keyed document store over the database's heap file: documents
are identified by ``(kind, name)`` and hold a JSON-safe dict. The widget
library and the rule repository serialize through it; they reload from it
on database re-open, which is what makes customizations survive sessions.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..errors import ObjectNotFoundError, SchemaError
from .database import GeographicDatabase
from .schema import Schema
from .storage import RecordId

#: Reserved document kinds used by the library layers.
KIND_SCHEMA = "schema"
KIND_WIDGET = "widget"
KIND_CUSTOMIZATION = "customization"
KIND_RULE = "rule"
KIND_PRESENTATION = "presentation"


class MetadataCatalog:
    """Keyed documents stored in the database's own pages."""

    def __init__(self, database: GeographicDatabase):
        self.database = database
        #: (kind, name) -> RecordId
        self._directory: dict[tuple[str, str], RecordId] = {}
        self._rebuild_directory()

    def _rebuild_directory(self) -> None:
        """Recover the directory by scanning the heap for catalog records."""
        for rid, record in self.database.heap.scan():
            if record.get("_catalog") is True:
                self._directory[(record["kind"], record["name"])] = rid

    # -- document API ----------------------------------------------------------

    def put(self, kind: str, name: str, document: dict[str, Any]) -> None:
        """Insert or replace a document."""
        if not kind or not name:
            raise SchemaError("catalog documents need a kind and a name")
        record = {"_catalog": True, "kind": kind, "name": name, "doc": document}
        key = (kind, name)
        if key in self._directory:
            self._directory[key] = self.database.heap.overwrite(
                self._directory[key], record
            )
        else:
            self._directory[key] = self.database.heap.insert(record)

    def get(self, kind: str, name: str) -> dict[str, Any]:
        key = (kind, name)
        if key not in self._directory:
            raise ObjectNotFoundError(f"no catalog document {kind}/{name}")
        return self.database.heap.read(self._directory[key])["doc"]

    def has(self, kind: str, name: str) -> bool:
        return (kind, name) in self._directory

    def delete(self, kind: str, name: str) -> None:
        key = (kind, name)
        if key not in self._directory:
            raise ObjectNotFoundError(f"no catalog document {kind}/{name}")
        self.database.heap.delete(self._directory.pop(key))

    def names(self, kind: str) -> list[str]:
        return sorted(name for (k, name) in self._directory if k == kind)

    def documents(self, kind: str) -> Iterator[tuple[str, dict[str, Any]]]:
        for name in self.names(kind):
            yield name, self.get(kind, name)

    # -- schema persistence -------------------------------------------------------

    def save_schema(self, schema: Schema) -> None:
        """Persist a schema description (types, docs, hierarchy)."""
        self.put(KIND_SCHEMA, schema.name, schema.describe())

    def load_schema(self, name: str) -> Schema:
        """Rebuild a :class:`Schema` from its stored description.

        Method *implementations* are not persisted (they are Python
        callables); re-register them via
        :meth:`GeographicDatabase.register_method` after loading.
        """
        return Schema.from_description(self.get(KIND_SCHEMA, name))

    def save_all_schemas(self) -> int:
        count = 0
        for name in self.database.schema_names():
            self.save_schema(self.database.get_schema_object(name))
            count += 1
        return count

    def __len__(self) -> int:
        return len(self._directory)
