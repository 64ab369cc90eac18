"""Typed request/response contracts for the serving protocol.

Every frame on the wire is one of three envelopes:

* **request** — ``{"id": <int>, "kind": <str>, ...fields}``, client → server;
* **response** — ``{"id": <int>, "ok": <bool>, ...fields}``, server → client,
  correlated by ``id``; ``ok: false`` carries ``error`` (message) and
  ``code`` (the server-side error class name, e.g. ``"SchemaError"``);
* **push** — ``{"push": <str>, ...fields}``, server → client, unsolicited
  (no ``id``): committed row operations and live-query updates from the
  kernel's change feed, delivered to the connections that want them.

Each request kind has a :class:`Contract` naming its required and
optional fields with their JSON types. Validation happens *before* the
router touches the kernel, so a malformed request can never leave a
session half-mutated — it is rejected with a ``ProtocolError`` response
and the connection stays usable.

The kinds (see ``docs/SERVING.md`` for the full field tables):

=============== ====================================================
``hello``        server/protocol identification
``open_session`` open a kernel session (user, category, application…)
``close_session`` shut one session down (idempotent)
``event``        a §4 browsing interaction against a session
``query``        analysis-mode query through the kernel result cache
``render``       text rendering of one window or the whole screen
``scene``        structured description of every open window
``txn``          a batch of mutations committed as one transaction
``subscribe``    opt in to mutation pushes for a set of classes
``unsubscribe``  opt out again
``watch``        register a live query; result changes are pushed
``unwatch``      release a live query registration
``stats``        the kernel status tree (``GISKernel.stats``)
``ping``         liveness probe
``repl_snapshot`` one chunk of a replication bootstrap snapshot
``repl_poll``    shipped WAL batches after a cursor LSN
``repl_status``  leader + per-replica LSN/lag
=============== ====================================================
"""

from __future__ import annotations

from typing import Any

from ..errors import ProtocolError

#: protocol revision; bumped on any incompatible envelope change
PROTOCOL_VERSION = 1

_TYPE_NAMES = {
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    list: "array",
    dict: "object",
}


def _type_label(types: tuple) -> str:
    return " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in types)


class Contract:
    """Field schema for one request kind."""

    __slots__ = ("kind", "required", "optional")

    def __init__(self, kind: str, required: dict[str, tuple] | None = None,
                 optional: dict[str, tuple] | None = None):
        self.kind = kind
        self.required = required or {}
        self.optional = optional or {}

    def validate(self, doc: dict[str, Any]) -> None:
        """Raise :class:`ProtocolError` unless ``doc`` satisfies this
        contract. Unknown fields are rejected too — they are almost
        always a client bug, and silently ignoring them would make the
        protocol impossible to evolve."""
        for name, types in self.required.items():
            if name not in doc:
                raise ProtocolError(
                    f"{self.kind!r} request is missing required field "
                    f"{name!r}"
                )
            self._check(name, doc[name], types)
        for name, types in self.optional.items():
            if name in doc and doc[name] is not None:
                self._check(name, doc[name], types)
        known = {"id", "kind", *self.required, *self.optional}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ProtocolError(
                f"{self.kind!r} request has unknown field(s): "
                + ", ".join(repr(f) for f in unknown)
            )

    def _check(self, name: str, value: Any, types: tuple) -> None:
        # bool is an int subclass; only accept it where bool is declared
        if isinstance(value, bool) and bool not in types:
            raise ProtocolError(
                f"{self.kind!r} field {name!r} must be "
                f"{_type_label(types)}, got boolean"
            )
        if not isinstance(value, types):
            raise ProtocolError(
                f"{self.kind!r} field {name!r} must be "
                f"{_type_label(types)}, got {type(value).__name__}"
            )


_NUM = (int, float)

#: the request contract registry, keyed by ``kind``
CONTRACTS: dict[str, Contract] = {
    c.kind: c
    for c in [
        Contract("hello"),
        Contract(
            "open_session",
            optional={
                "user": (str,),
                "category": (str,),
                "application": (str,),
                "scale_denominator": _NUM,
                "time_tag": (str,),
                "auto_refresh": (bool,),
            },
        ),
        Contract("close_session", required={"session": (str,)}),
        Contract(
            "event",
            required={"session": (str,), "op": (str,)},
            optional={
                "schema": (str,),     # open_schema
                "name": (str,),       # select_class
                "oid": (str,),        # select_instance
                "class": (str,),      # pick / select_instance
                "col": (int,),        # pick
                "row": (int,),        # pick
                "window": (str,),     # close_window
            },
        ),
        Contract(
            "query",
            required={"schema": (str,), "text": (str,)},
            optional={
                "session": (str,),
                "use_cache": (bool,),
                "read_preference": (str,),
                "min_lsn": (int,),
            },
        ),
        Contract(
            "render",
            required={"session": (str,)},
            optional={"window": (str,)},
        ),
        Contract("scene", required={"session": (str,)}),
        Contract(
            "txn",
            required={"ops": (list,)},
            optional={"session": (str,), "wait_durable": (bool,)},
        ),
        Contract("subscribe", required={"classes": (list,)}),
        Contract("unsubscribe", optional={"classes": (list,)}),
        Contract(
            "watch",
            required={"session": (str,), "schema": (str,),
                      "text": (str,)},
        ),
        Contract("unwatch", required={"watch": (str,)}),
        Contract("stats"),
        Contract("ping"),
        Contract("repl_snapshot", optional={"chunk": (int,)}),
        Contract(
            "repl_poll",
            required={"cursor": (int,)},
            optional={"max_batches": (int,)},
        ),
        Contract("repl_status"),
    ]
}

#: the ``op`` vocabulary of the ``event`` kind, with per-op field needs
EVENT_OPS: dict[str, tuple[str, ...]] = {
    "open_schema": ("schema",),
    "select_class": ("name",),
    "select_instance": ("oid",),
    "pick": ("class", "col", "row"),
    "close_window": ("window",),
}

#: the ``op`` vocabulary of one ``txn`` batch entry
TXN_OPS = frozenset({"insert", "update", "delete"})


def validate_request(doc: dict[str, Any]) -> Contract:
    """Validate the envelope and body of one request frame.

    Returns the matched contract. Raises :class:`ProtocolError` for a
    missing/mistyped ``id``, an unknown ``kind``, or any field
    violation.
    """
    request_id = doc.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError("request frame is missing an integer 'id'")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ProtocolError("request frame is missing a string 'kind'")
    contract = CONTRACTS.get(kind)
    if contract is None:
        raise ProtocolError(
            f"unknown request kind {kind!r}; known kinds: "
            + ", ".join(sorted(CONTRACTS))
        )
    contract.validate(doc)
    if kind == "event":
        _validate_event(doc)
    elif kind == "txn":
        _validate_txn(doc)
    return contract


def _validate_event(doc: dict[str, Any]) -> None:
    op = doc["op"]
    needed = EVENT_OPS.get(op)
    if needed is None:
        raise ProtocolError(
            f"unknown event op {op!r}; known ops: "
            + ", ".join(sorted(EVENT_OPS))
        )
    missing = [f for f in needed if doc.get(f) is None]
    if missing:
        raise ProtocolError(
            f"event op {op!r} requires field(s): "
            + ", ".join(repr(f) for f in missing)
        )


def _validate_txn(doc: dict[str, Any]) -> None:
    ops = doc["ops"]
    if not ops:
        raise ProtocolError("'txn' request has an empty 'ops' batch")
    for i, entry in enumerate(ops):
        if not isinstance(entry, dict):
            raise ProtocolError(f"txn op #{i} must be an object")
        op = entry.get("op")
        if op not in TXN_OPS:
            raise ProtocolError(
                f"txn op #{i} has unknown op {op!r}; known ops: "
                + ", ".join(sorted(TXN_OPS))
            )
        if op == "insert":
            for f in ("schema", "class", "values"):
                if f not in entry:
                    raise ProtocolError(
                        f"txn insert op #{i} is missing {f!r}"
                    )
            if not isinstance(entry["values"], dict):
                raise ProtocolError(
                    f"txn insert op #{i} 'values' must be an object"
                )
        elif op == "update":
            if "oid" not in entry or "changes" not in entry:
                raise ProtocolError(
                    f"txn update op #{i} needs 'oid' and 'changes'"
                )
            if not isinstance(entry["changes"], dict):
                raise ProtocolError(
                    f"txn update op #{i} 'changes' must be an object"
                )
        elif "oid" not in entry:
            raise ProtocolError(f"txn delete op #{i} needs 'oid'")


# ----------------------------------------------------------------------
# Envelope constructors (the only places that shape response frames)
# ----------------------------------------------------------------------

def make_response(request_id: int, **fields: Any) -> dict[str, Any]:
    """A success response correlated to ``request_id``."""
    return {"id": request_id, "ok": True, **fields}


def make_error(request_id: int | None, message: str,
               code: str) -> dict[str, Any]:
    """An error response; ``code`` names the server-side error class."""
    return {"id": request_id, "ok": False, "error": message, "code": code}


def make_push(push_kind: str, **fields: Any) -> dict[str, Any]:
    """An unsolicited server push (no correlation id)."""
    return {"push": push_kind, **fields}
