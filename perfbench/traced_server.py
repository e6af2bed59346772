"""The stock server with spans around each layer's entry points.

Usage: ``python perfbench/traced_server.py --spans PATH -- <repro-server
flags>``.  It runs ``repro.server.__main__.main`` unchanged, so the
server has exactly the stock defaults, after wrapping:

* the names ``repro.server.server`` binds at import: ``decode_payload``,
  ``dispatch``, ``encode_result_bytes`` and ``encode_error_bytes``;
* ``LockService.acquire_plan`` and the Section 7 planners
  ``plan_instance`` / ``plan_composite``;
* the ``TransactionManager`` operations, plus ``Database.components_of``,
  ``ancestors_of``, ``delete`` and ``make`` and the Deletion Rule's
  ``would_delete`` (so a transaction's self time excludes the core work
  beneath it);
* every callback on the database's hook lists and every lock-table
  observer, named after its owner's module (journal, mvcc, lockdep);
* ``os.fsync``.

A span records its name, start, end, active time, parent span (through a
context variable, so each asyncio task has its own stack), request id
and, for an async span, how often it was suspended.  An async span's
*active* time sums only the stretches its coroutine was running; the rest
of its duration it was suspended (a lock wait).  Spans stay in memory
and are written on SIGTERM as a JSON header line followed by the raw
columns; the process then exits at once, which for a durable server is a
crash with the page cache intact.
"""

from __future__ import annotations

import array
import contextvars
import functools
import json
import os
import signal
import sys
from pathlib import Path
from time import monotonic_ns

#: Span columns, each an ``array('q')``.
COLUMNS = ("name", "start", "end", "active", "parent", "request", "suspends")

#: Database hook lists whose callbacks are traced.
HOOK_LISTS = ("on_before_change", "on_update", "on_persist", "on_delete",
              "on_op_end", "on_txn_commit", "on_txn_abort")

#: Module that owns a hook callback -> the layer its span is named after.
OWNER_LAYERS = {
    "repro.storage.journal": "journal",
    "repro.mvcc.manager": "mvcc",
    "repro.analysis.lockdep": "lockdep",
}

TXN_OPS = ("begin", "read", "write", "insert", "make", "delete", "commit",
           "abort")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.cols = {column: array.array("q") for column in COLUMNS}
        self.current = contextvars.ContextVar("span", default=-1)
        self.request = contextvars.ContextVar("request", default=0)
        self.requests = 0

    def _name_id(self, name):
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, name, start):
        cols = self.cols
        index = len(cols["name"])
        cols["name"].append(self._name_id(name))
        cols["start"].append(start)
        cols["end"].append(0)
        cols["active"].append(0)
        cols["parent"].append(self.current.get())
        cols["request"].append(self.request.get())
        cols["suspends"].append(0)
        return index

    def wrap(self, name, fn):
        """Trace the synchronous callable *fn* as span *name*."""
        cols = self.cols
        current = self.current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = monotonic_ns()
            index = self._open(name, start)
            token = current.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = monotonic_ns()
                current.reset(token)
                cols["end"][index] = end
                cols["active"][index] = end - start
            return result

        return traced

    def wrap_async(self, name_of, fn):
        """Trace the coroutine function *fn*; ``name_of(*args)`` names
        each span.  Its ``suspends`` column counts its suspensions."""
        cols = self.cols
        current = self.current

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            index = self._open(name_of(*args), monotonic_ns())
            token = current.set(index)
            try:
                return await _Active(fn(*args, **kwargs), cols, index)
            finally:
                current.reset(token)
                cols["end"][index] = monotonic_ns()

        return traced

    def new_request(self):
        self.requests += 1
        self.request.set(self.requests)

    def dump(self, path):
        header = {"names": self.names, "columns": list(COLUMNS),
                  "spans": len(self.cols["name"])}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in COLUMNS:
                self.cols[column].tofile(handle)


class _Active:
    """Await a coroutine, adding the time it actually runs to a span.

    Each resumption of the inner coroutine is timed; the time between
    resumptions (the task suspended on a lock wait) is not, and each
    suspension is counted in the ``suspends`` column.
    """

    def __init__(self, coro, cols, index):
        self.coro = coro
        self.cols = cols
        self.index = index

    def __await__(self):
        inner = self.coro.__await__()
        active = self.cols["active"]
        suspends = self.cols["suspends"]
        index = self.index
        value, error = None, None
        while True:
            start = monotonic_ns()
            try:
                if error is not None:
                    signal_ = inner.throw(error)
                else:
                    signal_ = inner.send(value)
            except StopIteration as stop:
                active[index] += monotonic_ns() - start
                return stop.value
            except BaseException:
                active[index] += monotonic_ns() - start
                raise
            active[index] += monotonic_ns() - start
            suspends[index] += 1
            try:
                value, error = (yield signal_), None
            except BaseException as thrown:  # delivered into the inner coro
                value, error = None, thrown


class _ObserverProxy:
    """A lock-table observer whose callbacks are traced."""

    def __init__(self, tracer, observer, layer):
        self.on_grant = tracer.wrap(f"{layer}.on_grant", observer.on_grant)
        self.on_release = tracer.wrap(f"{layer}.on_release",
                                      observer.on_release)


def _layer_of(callback):
    owner = getattr(callback, "__self__", callback)
    module = type(owner).__module__
    return OWNER_LAYERS.get(module, module.rsplit(".", 1)[-1])


def instrument(tracer):
    """Wrap every traced entry point (see the module docstring)."""
    from repro.core import deletion
    from repro.core.database import Database
    from repro.locking.protocol import CompositeLockingProtocol
    from repro.server import server as srv
    from repro.txn.manager import TransactionManager

    traced_decode = tracer.wrap("protocol.decode", srv.decode_payload)

    def decode_payload(version, raw):
        # Every request starts with its decode: a new request id.
        tracer.new_request()
        return traced_decode(version, raw)

    srv.decode_payload = decode_payload
    srv.encode_result_bytes = tracer.wrap("protocol.encode",
                                          srv.encode_result_bytes)
    srv.encode_error_bytes = tracer.wrap("protocol.encode",
                                         srv.encode_error_bytes)
    srv.dispatch = tracer.wrap_async(
        lambda _session, op, _args: f"dispatch.{op}", srv.dispatch
    )
    srv.LockService.acquire_plan = tracer.wrap_async(
        lambda *_args: "locking.acquire_plan", srv.LockService.acquire_plan
    )
    for planner in ("plan_instance", "plan_composite"):
        setattr(CompositeLockingProtocol, planner, tracer.wrap(
            f"locking.{planner}", getattr(CompositeLockingProtocol, planner)
        ))
    for op in TXN_OPS:
        setattr(TransactionManager, op, tracer.wrap(
            f"txn.{op}", getattr(TransactionManager, op)
        ))
    for op in ("components_of", "ancestors_of", "delete", "make"):
        setattr(Database, op, tracer.wrap(f"core.{op}", getattr(Database, op)))
    # TransactionManager.delete imports this name at call time.
    deletion.would_delete = tracer.wrap("core.would_delete",
                                        deletion.would_delete)
    os.fsync = tracer.wrap("journal.fsync", os.fsync)

    start = srv.ReproServer.start

    async def start_traced(server):
        # Hook lists and observers exist only once the server (journal,
        # MVCC manager, lock-order recorder) is constructed.
        for hook in HOOK_LISTS:
            callbacks = getattr(server.db, hook)
            callbacks[:] = [
                tracer.wrap(f"{_layer_of(cb)}.{hook}", cb) for cb in callbacks
            ]
        observers = server.tm.table.observers
        observers[:] = [_ObserverProxy(tracer, obs, _layer_of(obs))
                        for obs in observers]
        return await start(server)

    srv.ReproServer.start = start_traced


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: traced_server.py --spans PATH -- <server flags>",
              file=sys.stderr)
        return 2
    spans, server_argv = Path(argv[1]), argv[3:]
    tracer = Tracer()
    instrument(tracer)

    def on_term(_signum, _frame):
        tracer.dump(spans)
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    from repro.server.__main__ import main as server_main

    return server_main(server_argv)


if __name__ == "__main__":
    sys.exit(main())
