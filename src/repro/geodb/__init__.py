"""Object-oriented geographic DBMS substrate.

Provides the storage, schema, query, transaction and event surfaces the
paper's architecture assumes of its "geographic database".
"""

from .types import (
    BITMAP,
    BOOLEAN,
    FLOAT,
    INTEGER,
    RASTER,
    TEXT,
    AttributeType,
    BitmapType,
    BooleanType,
    FloatType,
    GeometryType,
    IntegerType,
    ListType,
    RasterType,
    ReferenceType,
    TextType,
    TupleType,
    scalar,
    type_from_description,
)
from .raster import (
    DEFAULT_TILE,
    Raster,
    RasterRef,
    RasterStore,
    RasterWindow,
)
from .schema import Attribute, GeoClass, Method, Schema
from .instances import Extent, GeoObject, fresh_oid
from .storage import FilePager, HeapFile, MemoryPager, RecordId, PAGE_SIZE
from .buffer import BufferManager, BufferStats
from .wal import FaultInjectingPager, LogShipper, WriteAheadLog
from .database import GeographicDatabase
from .mvcc import Version, VersionStore
from .replication import LocalReplicationSource, RemoteReplicationSource
from .columns import ClassColumns, ColumnCache
from .transactions import Transaction, TxnState
from .query import (
    And,
    Comparison,
    Not,
    Or,
    Predicate,
    Query,
    RelateMask,
    SpatialPredicate,
    TruePredicate,
    WithinDistance,
)
from .query_engine import QueryEngine, QueryResult
from .attr_index import HashIndex
from .query_language import parse_query, run_query
from .scenario import Scenario
from .catalog import (
    KIND_CUSTOMIZATION,
    KIND_PRESENTATION,
    KIND_RULE,
    KIND_SCHEMA,
    KIND_WIDGET,
    MetadataCatalog,
)

__all__ = [
    "AttributeType", "IntegerType", "FloatType", "TextType", "BooleanType",
    "BitmapType", "GeometryType", "ReferenceType", "TupleType", "ListType",
    "RasterType",
    "INTEGER", "FLOAT", "TEXT", "BOOLEAN", "BITMAP", "RASTER",
    "scalar", "type_from_description",
    "Raster", "RasterRef", "RasterStore", "RasterWindow", "DEFAULT_TILE",
    "Attribute", "Method", "GeoClass", "Schema",
    "GeoObject", "Extent", "fresh_oid",
    "MemoryPager", "FilePager", "HeapFile", "RecordId", "PAGE_SIZE",
    "BufferManager", "BufferStats",
    "WriteAheadLog", "FaultInjectingPager", "LogShipper",
    "GeographicDatabase", "Transaction", "TxnState",
    "Version", "VersionStore",
    "LocalReplicationSource", "RemoteReplicationSource",
    "ClassColumns", "ColumnCache",
    "Predicate", "Comparison", "SpatialPredicate", "WithinDistance",
    "And", "Or", "Not", "TruePredicate", "Query", "RelateMask",
    "QueryEngine", "QueryResult",
    "parse_query", "run_query", "Scenario", "HashIndex",
    "MetadataCatalog", "KIND_SCHEMA", "KIND_WIDGET", "KIND_CUSTOMIZATION",
    "KIND_RULE", "KIND_PRESENTATION",
]
