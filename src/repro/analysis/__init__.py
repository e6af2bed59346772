"""Static analysis and integrity checking for the composite-object DB.

Five planes over one findings model (:mod:`repro.analysis.findings`):

* Plane 1 — :class:`SchemaAnalyzer` (static schema/topology analysis and
  schema-evolution pre-flight) and :func:`check_query` (static query
  validation), both schema-only: no instance is touched.
* Plane 2 — :func:`fsck_database`, the offline integrity checker that
  walks a whole database and verifies every invariant end-to-end.
* Plane 3 — the concurrency pass: :class:`LockOrderRecorder` (lockdep-
  style latent-deadlock detection from runs that never deadlocked),
  :func:`analyze_templates` (the same lock-order analysis predicted
  statically from transaction templates), and :func:`lint_package`
  (AST linter enforcing the codebase's concurrency/durability
  discipline on ``src/repro`` itself).
* Plane 4 — the protocol pass: :func:`check_protocol` (exhaustive
  explicit-state model checking of the 2PC coordinator/worker state
  machines, crash-at-failpoint-site and recovery included),
  :func:`conform_trace` (recorded durable traces must be
  linearizations the model allows), the drift lint
  :func:`lint_protocol_sites` that keeps the model honest against the
  implementation, and :func:`lint_wire_ops` (every registered wire op
  survives the v2 framing round-trip).
* Plane 5 — the isolation pass: :class:`HistoryRecorder` (a passive
  observer that captures every transaction's read/write/delete
  footprint into a serializable :class:`History`),
  :func:`check_history` (Adya-style Direct Serialization Graph
  analysis reporting G0/G1/G2 anomalies with minimal witness cycles,
  plus lost-update / write-skew classifiers), and
  :func:`predict_isolation` (the same anomalies predicted from
  transaction templates alone: what breaks if reads stop locking).

The ``repro-check`` console script (:mod:`repro.analysis.cli`) and the
server's ``check`` op expose all five planes; the
:data:`~repro.analysis.findings.PLANES` registry keeps the three
surfaces from drifting apart.
"""

from .codelint import lint_package, lint_source
from .findings import Finding, PlaneSpec, PLANES, Report, Severity
from .fsck import fsck_database
from .history import Event, History, HistoryRecorder
from .isocheck import check_history, predict_isolation
from .lockdep import LockOrderGraph, LockOrderRecorder
from .locklint import TransactionTemplate, analyze_templates
from .proto_model import Scope
from .protocheck import (
    check_protocol,
    conform_trace,
    conform_traces,
    explore,
    extract_trace,
    lint_protocol_sites,
    lint_wire_ops,
)
from .query_check import check_query
from .schema_check import EVOLUTION_CHANGES, SchemaAnalyzer

__all__ = [
    "EVOLUTION_CHANGES",
    "Event",
    "Finding",
    "History",
    "HistoryRecorder",
    "LockOrderGraph",
    "LockOrderRecorder",
    "PLANES",
    "PlaneSpec",
    "Report",
    "SchemaAnalyzer",
    "Scope",
    "Severity",
    "TransactionTemplate",
    "analyze_templates",
    "check_history",
    "check_protocol",
    "check_query",
    "conform_trace",
    "conform_traces",
    "explore",
    "extract_trace",
    "fsck_database",
    "lint_package",
    "lint_protocol_sites",
    "lint_source",
    "lint_wire_ops",
    "predict_isolation",
]
