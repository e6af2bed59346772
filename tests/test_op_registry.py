"""The wire-op registry (:data:`repro.server.dispatch.OPS`).

Dispatch, the read-only gate, the client retry set and generated
methods, and the shard router's routing all derive from one
:class:`OpSpec` per op.  These tests pin the invariants a spec enforces
when it is defined and the read-only gate every mutating op must pass
through; the router's reject routes are covered over real TCP in
``test_shard.py``.
"""

import asyncio
import dataclasses
from types import SimpleNamespace

import pytest

from repro.errors import ReadOnlyError
from repro.server.client import RETRYABLE_OPS, Client
from repro.server.dispatch import (
    LOCAL,
    OPS,
    OpSpec,
    Route,
    _registry,
    by_uid,
    dispatch,
)
from repro.server.server import ReproServer
from repro.shard.placement import Manifest
from repro.shard.router import ShardRouter


async def _handler(session, args):
    return "served"


class TestSpecInvariants:
    def test_mutating_and_retryable_is_refused(self):
        with pytest.raises(ValueError, match="cannot be retryable"):
            OpSpec("bad", _handler, by_uid("uid"), mutating=True,
                   retryable=True)

    def test_uid_route_without_argument_is_refused(self):
        with pytest.raises(ValueError, match="routing argument"):
            OpSpec("bad", _handler, Route("uid"))
        with pytest.raises(ValueError, match="routing argument"):
            by_uid(None)

    def test_unknown_route_kind_and_reasonless_reject_are_refused(self):
        with pytest.raises(ValueError, match="unknown route kind"):
            Route("teleport")
        with pytest.raises(ValueError, match="reason"):
            Route("reject")

    def test_an_op_declared_twice_is_refused(self):
        spec = OpSpec("twice", _handler, LOCAL)
        with pytest.raises(ValueError, match="declared twice"):
            _registry(spec, spec)

    def test_retry_set_derives_from_the_registry(self):
        retryable = {name for name, spec in OPS.items() if spec.retryable}
        assert RETRYABLE_OPS == retryable | {"hello"}

    def test_generated_client_methods_follow_client_args(self):
        for name, spec in OPS.items():
            method = getattr(Client, name, None)
            generated = (method is not None and method.__doc__
                         == f"Invoke the ``{name}`` op on the server.")
            assert generated == (spec.client_args is not None), name


class TestReadOnlyGate:
    def test_transaction_control_is_not_mutating(self):
        # A client caught mid-transaction must still resolve its scope.
        for op in ("begin", "commit", "abort"):
            assert not OPS[op].mutating

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_gate_runs_before_the_handler(self, op, monkeypatch):
        calls = []

        async def recording(session, args):
            calls.append(op)
            return "served"

        monkeypatch.setitem(
            OPS, op, dataclasses.replace(OPS[op], handler=recording)
        )
        server = ReproServer()
        server.read_only = True
        session = SimpleNamespace(server=server)
        if OPS[op].mutating:
            with pytest.raises(ReadOnlyError, match=repr(op)):
                asyncio.run(dispatch(session, op, {}))
            assert calls == []
        else:
            assert asyncio.run(dispatch(session, op, {})) == "served"
            assert calls == [op]


class TestRouterDerivation:
    def test_router_serves_every_registered_op(self, tmp_path):
        router = ShardRouter(tmp_path, manifest=Manifest(shards=2))
        assert set(router._serve) == set(OPS)

    def test_a_route_without_a_router_method_fails_at_construction(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(
            OPS, "teleport", OpSpec("teleport", _handler, LOCAL)
        )
        with pytest.raises(AttributeError, match="_local_teleport"):
            ShardRouter(tmp_path, manifest=Manifest(shards=2))
