"""Smoke tests of the benchmark harness at tiny size, plus oracle checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

Each workload runs untraced and traced against a real server process;
each oracle is then fed one fabricated violation and must fire.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from perfbench import bench
from perfbench.ledger import Ledger
from perfbench.proc import ROOT
from perfbench.traced_server import Tracer
from perfbench.workloads import STAMP_ATTRIBUTE

TINY = {
    "txmix": {"roots": 12},
    "durable-churn": {},
    "assembly": {"assemblies": 3},
}


def _options(name):
    return bench.Options(seconds=0.6, warmup=20, setups=2, sizes=TINY[name])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(name, trace, tmp_path):
    result = asyncio.run(bench.execute(name, 7, _options(name), trace,
                                       tmp_path / "work"))
    assert result["violations"] == []
    assert result["failed"] == 0
    end_to_end, per_layer = bench.declared_metrics()
    assert set(result["metrics"]) == set(per_layer if trace else end_to_end)
    assert result["meta"]["server_argv"][:3] == ["python", "-m",
                                                 "repro.server"]
    if not trace:
        assert result["metrics"]["setup_s"][1] == 2
        assert all(value > 0 for value, _n in result["metrics"].values())
    else:
        metrics = result["metrics"]
        assert metrics["server.cpu_us_per_request"][0] > 0
        assert metrics["ledger.dispatch_us_per_request"][0] > 0
    assert not (tmp_path / "work").exists()


async def _tampered(name, tamper, tmp_path):
    """Run a short window, apply *tamper*, and return the oracle's verdict."""
    stage = await bench.open_stage(name, 3, tmp_path, TINY[name])
    try:
        await bench.measure(stage, 0.4, 20)
        await tamper(stage)
        violations, _recovery = await bench.verify(stage)
    finally:
        await bench.close_stage(stage)
    return violations


def test_txmix_oracle_catches_lost_ack(tmp_path):
    async def lose_ack(stage):
        workload = stage.workload
        uid = workload.roots[0]
        seq, stamp = workload.last_write[uid]
        workload.last_write[uid] = (seq, stamp + 10**6)

    violations = asyncio.run(_tampered("txmix", lose_ack, tmp_path))
    assert len(violations) == 1 and "last ack" in violations[0]


def test_assembly_oracle_catches_orphan_part(tmp_path):
    async def orphan(stage):
        await stage.clients[0].make("Part")

    violations = asyncio.run(_tampered("assembly", orphan, tmp_path))
    assert len(violations) == 1 and "instances_of" in violations[0]


def test_recovery_oracle_catches_resurrected_root(tmp_path):
    async def resurrect(stage):
        # The client believes this live root's delete was acknowledged.
        root = await stage.clients[0].make(
            "MixRoot", values={STAMP_ATTRIBUTE: 0}
        )
        stage.workload.deleted.add(root)

    violations = asyncio.run(_tampered("durable-churn", resurrect, tmp_path))
    assert len(violations) == 1 and "came back" in violations[0]


def test_self_times_and_waits_add_up():
    tracer = Tracer()
    traced_leaf = tracer.wrap("core.leaf", lambda: sum(range(2000)))

    async def acquire():
        traced_leaf()
        await asyncio.sleep(0.02)  # suspended: a wait, not active time
        traced_leaf()

    traced = tracer.wrap_async(lambda: "locking.acquire_plan", acquire)
    asyncio.run(traced())
    ledger = Ledger(tracer.names, tracer.cols, 0, 2**62)
    calls, outer_self = ledger.calls["locking.acquire_plan"]
    leaf_calls, leaf_self = ledger.calls["core.leaf"]
    assert (calls, leaf_calls) == (1, 2)
    assert outer_self + leaf_self == tracer.cols["active"][0]
    assert len(ledger.waits) == 1 and ledger.waits[0] >= 15.0


def test_layer_map_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = [name for layer in layers["layers"].values()
              for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert set(layers["extra_end_to_end"]) == set(bench.EXTRA_UNITS)
    workloads = {w["name"] for w in spec["workloads"]}
    for layer in layers["layers"].values():
        for workload, moved in layer["moves"].items():
            assert workload in workloads
            assert set(moved) <= end_to_end | set(bench.EXTRA_UNITS)
