"""Run one workload against the stock server and compute its metrics.

One run sets up the workload (spawn the server, connect, load the
fixture) ``setups`` times and keeps the last, runs the closed loop for a
warm-up and then the measured window, then checks the workload's output
oracle.  The untraced run gives the end-to-end metrics.  A traced run
splits its seconds in two: an untraced window (for counts and the
tracing baseline), then the same window against the traced launcher for
the layer times.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import selectors
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .ledger import Ledger, load_spans, percentile
from .proc import (
    CLIENT_CPU,
    ROOT,
    SERVER_CPU,
    CpuKeeper,
    ServerProcess,
    steal_seconds,
)
from .workloads import WORKLOADS, CountingClient, Recorder, now

#: Units of end-to-end metrics printed but not gated by
#: ``BENCHMARK.json``: those defined on only some workloads, and
#: ``txn_p99_ms``, whose run-to-run spread on the fsync-bound workload
#: exceeds any admissible bound (``txn_p95_ms`` is gated instead).
EXTRA_UNITS = {
    "txn_p99_ms": "ms",
    "failed_frac": "ratio",
    "disk_bytes_per_txn": "B",
    "recovery_s": "s",
    "scan_p50_ms": "ms",
    "scan_p99_ms": "ms",
    "rebuild_p50_ms": "ms",
}


@dataclass
class Options:
    """How much one run does.

    ``warmup`` is in logical transactions (None: the workload's own
    ``WARMUP``); ``sizes`` shrinks fixtures in tests.
    """

    seconds: float
    warmup: int | None = None
    setups: int = 3
    sizes: dict = field(default_factory=dict)


class SpinSelector(selectors.DefaultSelector):
    """A selector that polls instead of sleeping.

    The client owns a core of its own, so busy-polling costs the server
    nothing and spares every reply a wake-up from an idle CPU, whose
    latency on a virtual machine varies far more than the work measured.
    ``idle_ns`` counts the polls that found nothing, so client CPU can
    still be reported as the time spent working.
    """

    def __init__(self):
        super().__init__()
        self.idle_ns = 0

    def select(self, timeout=None):
        deadline = None if timeout is None else now() + int(timeout * 1e9)
        while True:
            start = now()
            events = super().select(0)
            if events:
                return events
            end = now()
            self.idle_ns += end - start
            if deadline is not None and end >= deadline:
                return events


def run_loop(make_coro):
    """Run ``make_coro(idle)`` to completion; *idle* reads the client's
    idle seconds so far.  With two CPUs or more the client spins on its
    own core and a :class:`CpuKeeper` holds the server's (see
    :mod:`perfbench.proc`); with one, the loop is a plain asyncio loop."""
    if CLIENT_CPU is None:
        return asyncio.run(make_coro(lambda: 0.0))
    os.sched_setaffinity(0, {CLIENT_CPU})
    keeper = CpuKeeper(SERVER_CPU)
    selector = SpinSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        return loop.run_until_complete(
            make_coro(lambda: selector.idle_ns / 1e9)
        )
    finally:
        loop.close()
        keeper.stop()


@dataclass
class Stage:
    workload: object
    server: ServerProcess
    clients: list
    setup_s: float
    workdir: Path


@dataclass
class Window:
    """One measured window: client record plus server-side deltas."""

    rec: Recorder
    seconds: float
    t0: int
    t1: int
    server_cpu_s: float
    client_cpu_s: float
    client_requests: int
    before: dict
    after: dict
    #: ``stats`` payload read at the workload's ``SNAPSHOT_AT`` commits.
    sizes: dict
    rss_mb: float
    disk_bytes: int
    steal_s: float


def _dir_bytes(path):
    if not path.exists():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


async def open_stage(name, seed, workdir, sizes, spans=None):
    """Spawn a server, connect the workload's clients, load the fixture."""
    workload = WORKLOADS[name](seed, **sizes)
    start = time.perf_counter()
    server = ServerProcess(workdir, workload.server_args(workdir),
                           spans=spans).start()
    clients = []
    try:
        for _ in range(workload.connections):
            clients.append(await CountingClient(port=server.port).connect())
        await workload.load(clients)
    except BaseException:
        for client in clients:
            await client.close()
        server.kill()
        raise
    return Stage(workload, server, clients, time.perf_counter() - start,
                 workdir)


async def close_stage(stage):
    for client in stage.clients:
        await client.close()
    stage.server.stop()


async def _run_all(stage, rec, done):
    await asyncio.gather(*(stage.workload.run(client, rec, done)
                           for client in stage.clients))


async def measure(stage, seconds, warmup=None, idle=lambda: 0.0):
    """Warm up, then run the closed loop for *seconds* and take deltas.

    Peak RSS and the ``stats`` sizes (MVCC chains, lockdep edges) are
    read once the window has committed the workload's ``SNAPSHOT_AT``
    transactions (at the end if it never does), so they reflect a fixed
    amount of work rather than how fast the run went.  The loop pauses
    for that one ``stats`` call.
    """
    workload = stage.workload
    warm = Recorder()
    target = workload.WARMUP if warmup is None else warmup
    await _run_all(stage, warm, lambda: warm.commits >= target)
    first = stage.clients[0]
    server = stage.server
    data = stage.workdir / "data"
    before = await first.stats()
    disk0 = _dir_bytes(data)
    requests0 = sum(client.requests for client in stage.clients)
    client0 = time.process_time() - idle()
    cpu0 = server.cpu_seconds()
    steal0 = steal_seconds()
    rec = Recorder()
    t0 = now()
    stop_at = t0 + int(seconds * 1e9)
    await _run_all(stage, rec, lambda: (rec.commits >= workload.SNAPSHOT_AT
                                        or now() >= stop_at))
    rss_mb = server.peak_rss_mb()
    sizes = await first.stats()
    await _run_all(stage, rec, lambda: now() >= stop_at)
    t1 = now()
    cpu1 = server.cpu_seconds()
    steal1 = steal_seconds()
    client1 = time.process_time() - idle()
    requests1 = sum(client.requests for client in stage.clients)
    after = await first.stats()
    return Window(
        rec=rec, seconds=(t1 - t0) / 1e9, t0=t0, t1=t1,
        server_cpu_s=cpu1 - cpu0, client_cpu_s=client1 - client0,
        # Less the one mid-window stats call.
        client_requests=requests1 - requests0 - 1, before=before,
        after=after, sizes=sizes, rss_mb=rss_mb,
        disk_bytes=_dir_bytes(data) - disk0, steal_s=steal1 - steal0,
    )


async def verify(stage):
    """Run the workload's oracle; returns (violations, recovery seconds).

    The durable workload's oracle restarts the server: the running one
    dies without a clean shutdown (``kill -9``; the traced launcher exits
    the same way on SIGTERM after writing its spans) and a stock server
    recovers the same directory.
    """
    workload = stage.workload
    await workload.finish(stage.clients)
    recovery = []

    async def restart():
        for client in stage.clients:
            await client.close()
        if stage.server.spans is None:
            stage.server.kill()
        else:
            stage.server.stop()
        start = time.perf_counter()
        stage.server = ServerProcess(
            stage.workdir, workload.server_args(stage.workdir)
        ).start()
        client = await CountingClient(port=stage.server.port).connect()
        stage.clients = [client]
        await client.ping()
        recovery.append(time.perf_counter() - start)
        return client

    violations = await workload.verify(stage.clients, restart)
    return violations, (recovery[0] if recovery else None)


async def run_pass(name, seed, workdir, options, setups, spans=None,
                   idle=lambda: 0.0):
    """Set up *setups* times, measure the last stage, check its oracle."""
    setup_times = []
    stage = None
    try:
        for attempt in range(setups):
            stage_dir = workdir / f"stage{attempt}"
            stage = await open_stage(name, seed, stage_dir, options.sizes,
                                     spans=spans)
            setup_times.append(stage.setup_s)
            if attempt < setups - 1:
                await close_stage(stage)
                stage = None
        window = await measure(stage, options.seconds, options.warmup, idle)
        violations, recovery_s = await verify(stage)
        argv = stage.server.server_args
    finally:
        if stage is not None:
            await close_stage(stage)
    return {"window": window, "violations": violations,
            "recovery_s": recovery_s, "setup_times": setup_times,
            "server_args": argv}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ms(sorted_ns, q):
    return percentile(sorted_ns, q) / 1e6


def end_to_end(result):
    """End-to-end metrics of an untraced pass: name -> (value, n)."""
    window = result["window"]
    rec = window.rec
    commits = max(rec.commits, 1)
    latencies = sorted(rec.latencies)
    n = len(latencies)
    metrics = {
        "txn_per_s": (rec.commits / window.seconds, rec.commits),
        "txn_p50_ms": (_ms(latencies, 0.50), n),
        "txn_p95_ms": (_ms(latencies, 0.95), n),
        "commit_ratio": (rec.commits / max(rec.attempts, 1), rec.attempts),
        "server_cpu_us_per_txn": (window.server_cpu_s * 1e6 / commits,
                                  rec.commits),
        "server_rss_mb": (window.rss_mb, 1),
        "setup_s": (statistics.median(result["setup_times"]),
                    len(result["setup_times"])),
    }
    extras = {
        "txn_p99_ms": (_ms(latencies, 0.99), n),
        "failed_frac": (rec.failed_attempts / max(rec.attempts, 1),
                        rec.attempts),
    }
    if window.disk_bytes:
        extras["disk_bytes_per_txn"] = (window.disk_bytes / commits,
                                        rec.commits)
    if result["recovery_s"] is not None:
        extras["recovery_s"] = (result["recovery_s"], 1)
    scans = sorted(rec.samples.get("scan", ()))
    rebuilds = sorted(rec.samples.get("rebuild", ()))
    if scans:
        extras["scan_p50_ms"] = (_ms(scans, 0.50), len(scans))
        extras["scan_p99_ms"] = (_ms(scans, 0.99), len(scans))
    if rebuilds:
        extras["rebuild_p50_ms"] = (_ms(rebuilds, 0.50), len(rebuilds))
    return metrics, extras


def _delta(window, section, key):
    after = window.after.get(section) or {}
    before = window.before.get(section) or {}
    return (after.get(key) or 0) - (before.get(key) or 0)


def layer_counts(window):
    """Per-layer counts from the ``stats`` op around an untraced window."""
    rec = window.rec
    commits = max(rec.commits, 1)
    mvcc = window.sizes.get("mvcc") or {}
    lockdep = window.sizes.get("lockdep") or {}
    lock_requests = _delta(window, "locks", "requests")
    records = _delta(window, "durability", "records_written")
    fsyncs = _delta(window, "durability", "fsyncs")
    counts = rec.counts
    return {
        "client.cpu_us_per_txn": window.client_cpu_s * 1e6 / commits,
        "client.requests_per_txn": window.client_requests / commits,
        "protocol.bytes_out_per_txn":
            _delta(window, "server", "bytes_out") / commits,
        "locking.requests_per_txn": lock_requests / commits,
        "locking.blocks_per_txn": _delta(window, "locks", "blocks") / commits,
        "locking.grant_ratio":
            _delta(window, "locks", "grants") / max(lock_requests, 1),
        "locking.deadlocks_per_ktxn":
            _delta(window, "locks", "deadlocks_detected") * 1e3 / commits,
        "core.components_per_scan":
            counts.get("components_returned", 0) / max(counts.get("scans", 0),
                                                       1),
        "core.deleted_per_delete":
            counts.get("deleted_objects", 0) / max(counts.get("deletes", 0),
                                                   1),
        "journal.fsyncs_per_txn": fsyncs / commits,
        "journal.records_per_txn": records / commits,
        "journal.records_per_fsync": records / fsyncs if fsyncs else 0.0,
        "mvcc.versions_stamped_per_txn":
            _delta(window, "mvcc", "versions_stamped") / commits,
        "mvcc.chains": mvcc.get("chains", 0),
        "mvcc.chain_entries": mvcc.get("chain_entries", 0),
        "mvcc.versions_pruned": mvcc.get("versions_pruned", 0),
        "lockdep.order_edges": lockdep.get("order_edges", 0),
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def _commit_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(name, seed, options, trace, server_args):
    return {
        "commit": _commit_sha(),
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": name,
        "seed": seed,
        "seconds": options.seconds,
        "trace": trace,
        "server_argv": ["python", "-m", "repro.server", *server_args],
    }


async def execute(name, seed, options, trace, workdir, idle=lambda: 0.0):
    """One benchmark run.  Returns the result dict ``run.py`` prints.

    *idle* reads the client's idle seconds (see :func:`run_loop`).
    """
    workdir = Path(workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if trace:
        options = replace(options, seconds=options.seconds / 2)
    try:
        untraced = await run_pass(name, seed, workdir / "untraced", options,
                                  setups=1 if trace else options.setups,
                                  idle=idle)
        passes = [untraced]
        if trace:
            spans = workdir / "spans.bin"
            traced = await run_pass(name, seed, workdir / "traced", options,
                                    setups=1, spans=spans, idle=idle)
            passes.append(traced)
            names, cols = load_spans(spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    violations = [v for p in passes for v in p["violations"]]
    attempted = sum(len(p["window"].rec.latencies)
                    + p["window"].rec.failed_logical for p in passes)
    failed = sum(p["window"].rec.failed_logical for p in passes)
    meta = _metadata(name, seed, options, trace, untraced["server_args"])
    # Host time taken from the pinned CPUs during each window: the first
    # suspect when a run's timings stray.
    meta["steal_s"] = [round(p["window"].steal_s, 3) for p in passes]
    result = {
        "meta": meta,
        "violations": violations,
        "attempted": max(attempted, 1),
        "failed": failed,
        "stats": untraced["window"].after,
        "metrics": {},
        "extras": {},
    }
    if violations:
        return result
    e2e, extras = end_to_end(untraced)
    result["extras"] = extras
    if not trace:
        result["metrics"] = e2e
        return result
    window = traced["window"]
    ledger = Ledger(names, cols, window.t0, window.t1)
    layer = {key: (value, None) for key, value in
             layer_counts(untraced["window"]).items()}
    layer.update(ledger.metrics(window.server_cpu_s, window.rec.commits))
    traced_rate = window.rec.commits / window.seconds
    layer["trace.overhead_frac"] = (1 - traced_rate / e2e["txn_per_s"][0],
                                    window.rec.commits)
    result["metrics"] = layer
    return result


def declared_metrics():
    """``BENCHMARK.json``'s metric units: (end_to_end, per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})
