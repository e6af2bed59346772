"""The three workloads: fixture, closed-loop load and oracle inputs.

Every op sequence comes from the workload seed; the server only sees the
requests.  Each workload object holds the client's view of what the
server was acknowledged to hold, which its ``verify`` hands to the pure
checks in :mod:`perfbench.oracles`.

A *transaction* is one explicit ``begin``/``commit`` scope or one
auto-commit request.  A *logical* transaction is the client's unit of
work: a deadlock victim or lock timeout retries it as a new attempt, and
its latency runs from the first attempt's first request to the commit
ack.
"""

from __future__ import annotations

import asyncio
import random
import time

from repro.errors import DeadlockError, LockConflictError
from repro.server.client import AsyncClient
from repro.workloads.txmix import STAMP_ATTRIBUTE, composite_mix

from . import oracles

#: Attempts a logical transaction may make before it counts as failed.
MAX_ATTEMPTS = 50


def now():
    """The benchmark clock (CLOCK_MONOTONIC, shared with the server)."""
    return time.monotonic_ns()


class CountingClient(AsyncClient):
    """An :class:`AsyncClient` that counts its requests."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = 0

    async def _roundtrip(self, op, args):
        self.requests += 1
        return await super()._roundtrip(op, args)


class Recorder:
    """What one measured window saw, from the client side."""

    def __init__(self):
        #: Latency (ns) of each committed logical transaction.
        self.latencies = []
        #: Named per-op latency samples (ns): ``scan``, ``rebuild``.
        self.samples = {}
        #: Counts: committed / failed attempts, permanently failed
        #: logical transactions, and per-workload counters.
        self.commits = 0
        self.failed_attempts = 0
        self.failed_logical = 0
        self.counts = {}

    def committed(self, start):
        self.latencies.append(now() - start)
        self.commits += 1

    def sample(self, name, start):
        self.samples.setdefault(name, []).append(now() - start)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    @property
    def attempts(self):
        return self.commits + self.failed_attempts


async def _retrying(rec, attempt, abort=None):
    """Run the logical transaction *attempt* until it commits.

    A deadlock victim's transaction is already rolled back by the
    server; a lock timeout inside an explicit scope leaves it open, so
    *abort* (the client's, for explicit scopes) runs before the retry.
    Returns the attempt's result, or None when every attempt failed.
    """
    start = now()
    for _ in range(MAX_ATTEMPTS):
        try:
            result = await attempt()
        except DeadlockError:
            rec.failed_attempts += 1
            rec.count("deadlock_victims")
            continue
        except LockConflictError:
            rec.failed_attempts += 1
            rec.count("lock_timeouts")
            if abort is not None:
                await abort()
            continue
        rec.committed(start)
        return result
    rec.failed_logical += 1
    return None


# ---------------------------------------------------------------------------
# txmix
# ---------------------------------------------------------------------------


async def _gather_split(clients, total, build):
    """Run ``build(client, share)`` on every client concurrently."""
    shares = [total // len(clients)] * len(clients)
    shares[0] += total - sum(shares)
    await asyncio.gather(*(build(client, share)
                           for client, share in zip(clients, shares)))


async def _mix_schema(client):
    await client.make_class("MixPart", attributes=[
        {"name": STAMP_ATTRIBUTE, "domain": "integer"},
    ])
    await client.make_class("MixRoot", attributes=[
        {"name": STAMP_ATTRIBUTE, "domain": "integer"},
        {"name": "Parts", "domain": {"$set_of": "MixPart"},
         "composite": True, "exclusive": True, "dependent": True},
    ])


class Txmix:
    """The B9 composite mix over ``MixRoot`` composites, 2 connections."""

    name = "txmix"
    connections = 2
    #: Logical transactions of warm-up, and the window commit count at
    #: which peak RSS and the state sizes are read (fixed work, so they
    #: do not track speed).
    WARMUP = 1000
    SNAPSHOT_AT = 6000
    PARTS = 3
    #: Scripts generated per seeded chunk of the endless script stream.
    CHUNK = 2000

    def __init__(self, seed, roots=1000):
        self.seed = seed
        self.root_count = roots
        self.roots = []
        self.components = {}
        #: UID -> (ack sequence, stamp) of its last committed write.
        self.last_write = {}
        self._ack_seq = 0
        self._stamp = 0
        self._chunk = 0
        self._scripts = iter(())

    def server_args(self, workdir):
        return []

    async def load(self, clients):
        await _mix_schema(clients[0])

        async def build(client, count):
            for _ in range(count):
                root = await client.make(
                    "MixRoot", values={STAMP_ATTRIBUTE: 0}
                )
                parts = [
                    await client.make("MixPart", values={STAMP_ATTRIBUTE: 0},
                                      parents=[(root, "Parts")])
                    for _ in range(self.PARTS)
                ]
                self.roots.append(root)
                self.components[root] = parts

        await _gather_split(clients, self.root_count, build)
        # Fixture order depends on connection timing; sort so the seeded
        # script stream picks the same roots on every run.
        self.roots.sort(key=lambda uid: uid.number)
        for uid in [*self.roots, *(p for ps in self.components.values()
                                   for p in ps)]:
            self.last_write[uid] = (0, 0)

    def _next_script(self):
        script = next(self._scripts, None)
        if script is None:
            self._chunk += 1
            self._scripts = iter(composite_mix(
                self.roots, transactions=self.CHUNK, steps_per_txn=3,
                read_ratio=0.7, instance_access_ratio=0.2,
                components_by_root=self.components,
                seed=self.seed * 1_000_003 + self._chunk,
            ))
            script = next(self._scripts)
        return script

    async def run(self, client, rec, done):
        while not done():
            script = self._next_script()
            writes = []

            async def attempt(script=script, writes=writes):
                writes.clear()
                await client.begin()
                for step in script:
                    if step.action == "read_composite":
                        found = await client.components_of(step.target)
                        rec.count("components_returned", len(found))
                        rec.count("scans")
                    elif step.action == "read_instance":
                        await client.resolve(step.target)
                    else:
                        self._stamp += 1
                        stamp = self._stamp
                        await client.set_value(
                            step.target, STAMP_ATTRIBUTE, stamp
                        )
                        # Strict 2PL: a write on a UID is granted only
                        # after the previous writer's commit reached the
                        # server, so ack order is the server's order.
                        self._ack_seq += 1
                        writes.append((self._ack_seq, step.target, stamp))
                await client.commit()
                return True

            if await _retrying(rec, attempt, client.abort):
                for seq, uid, stamp in writes:
                    if seq > self.last_write[uid][0]:
                        self.last_write[uid] = (seq, stamp)

    async def finish(self, clients):
        pass

    async def verify(self, clients, restart):
        observed = {}
        for uid in self.last_write:
            observed[uid] = await clients[0].value(uid, STAMP_ATTRIBUTE)
        for class_name in ("MixRoot", "MixPart"):
            for uid in await clients[0].instances_of(class_name):
                observed.setdefault(uid, "<unexpected>")
        expected = {uid: stamp for uid, (_seq, stamp) in
                    self.last_write.items()}
        return oracles.check_stamps(expected, observed)


# ---------------------------------------------------------------------------
# durable-churn
# ---------------------------------------------------------------------------


class DurableChurn:
    """Create / update / delete cycles on a durable server, 1 connection."""

    name = "durable-churn"
    connections = 1
    WARMUP = 600
    SNAPSHOT_AT = 4000
    PARTS = 3
    #: Create+update cycles run after the window and never deleted, so
    #: the recovery oracle has acknowledged updates to read back.
    SURVIVORS = 8

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._stamp = 0
        #: root -> {part: acked stamp} for composites still alive.
        self.survivors = {}
        #: Every root and part whose delete was acknowledged.
        self.deleted = set()

    def server_args(self, workdir):
        return ["--data-dir", str(workdir / "data")]

    async def load(self, clients):
        await _mix_schema(clients[0])

    async def _create_and_update(self, client, rec):
        async def create():
            await client.begin()
            root = await client.make("MixRoot", values={STAMP_ATTRIBUTE: 0})
            parts = [
                await client.make("MixPart", values={STAMP_ATTRIBUTE: 0},
                                  parents=[(root, "Parts")])
                for _ in range(self.PARTS)
            ]
            await client.commit()
            return root, parts

        created = await _retrying(rec, create, client.abort)
        if created is None:
            return None
        root, parts = created
        acked = dict.fromkeys(parts, 0)
        self.survivors[root] = acked
        target = parts[self.rng.randrange(self.PARTS)]
        self._stamp += 1
        stamp = self._stamp

        async def update():
            return await client.set_value(target, STAMP_ATTRIBUTE, stamp)

        if await _retrying(rec, update):
            acked[target] = stamp
        return root

    async def run(self, client, rec, done):
        while not done():
            root = await self._create_and_update(client, rec)
            if root is None:
                continue

            async def delete(root=root):
                return await client.delete(root)

            report = await _retrying(rec, delete)
            if report is not None:
                self.deleted.update(report["deleted"])
                rec.count("deleted_objects", len(report["deleted"]))
                rec.count("deletes")
                del self.survivors[root]

    async def finish(self, clients):
        rec = Recorder()
        for _ in range(self.SURVIVORS):
            await self._create_and_update(clients[0], rec)
        if rec.failed_logical:
            raise RuntimeError("survivor cycles failed")

    async def verify(self, clients, restart):
        client = await restart()
        roots = set(await client.instances_of("MixRoot"))
        parts = set(await client.instances_of("MixPart"))
        stamps = {}
        for acked in self.survivors.values():
            for part in acked:
                if part in parts:
                    stamps[part] = await client.value(part, STAMP_ATTRIBUTE)
        return oracles.check_recovery(
            self.survivors, self.deleted, roots, parts, stamps
        )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class Assembly:
    """Depth-3, fanout-5 part trees: scans, ancestor walks, rebuilds."""

    name = "assembly"
    connections = 2
    WARMUP = 300
    SNAPSHOT_AT = 1200
    FANOUT = 5

    def __init__(self, seed, assemblies=30):
        self.rng = random.Random(seed)
        self.count = assemblies
        #: Per assembly: root UID and, per level-1 subassembly, the list
        #: of its 31 UIDs (subassembly first, its 25 leaves last).
        self.roots = []
        self.subs = []
        #: (assembly index, subassembly index) pairs being rebuilt.
        self.busy = set()

    def server_args(self, workdir):
        return []

    async def load(self, clients):
        await clients[0].make_class("Part", attributes=[
            {"name": "Subparts", "domain": {"$set_of": "Part"},
             "composite": True, "exclusive": True, "dependent": True},
        ])
        await clients[0].make_class("Assembly", attributes=[
            {"name": "Parts", "domain": {"$set_of": "Part"},
             "composite": True, "exclusive": True, "dependent": True},
        ])
        built = []

        async def build(client, count):
            for _ in range(count):
                root = await client.make("Assembly")
                subs = [await self._make_subtree(client, root, "Parts")
                        for _ in range(self.FANOUT)]
                built.append((root, subs))

        await _gather_split(clients, self.count, build)
        built.sort(key=lambda pair: pair[0].number)
        self.roots = [root for root, _ in built]
        self.subs = [subs for _, subs in built]

    async def _make_subtree(self, client, parent, attribute):
        """One level-1 subassembly (31 parts), made top-down."""
        sub = await client.make("Part", parents=[(parent, attribute)])
        middle = [await client.make("Part", parents=[(sub, "Subparts")])
                  for _ in range(self.FANOUT)]
        leaves = [await client.make("Part", parents=[(node, "Subparts")])
                  for node in middle for _ in range(self.FANOUT)]
        return [sub, *middle, *leaves]

    def expected(self, index):
        return {uid for sub in self.subs[index] for uid in sub}

    def _pick_idle(self):
        """A (assembly, subassembly) pair no connection is rebuilding."""
        while True:
            pair = (self.rng.randrange(len(self.roots)),
                    self.rng.randrange(self.FANOUT))
            if pair not in self.busy:
                return pair

    async def run(self, client, rec, done):
        while not done():
            draw = self.rng.random()
            if draw < 0.6:
                root = self.roots[self.rng.randrange(len(self.roots))]

                async def scan(root=root):
                    return await client.components_of(root)

                start = now()
                found = await _retrying(rec, scan)
                if found is not None:
                    rec.sample("scan", start)
                    rec.count("components_returned", len(found))
                    rec.count("scans")
            elif draw < 0.9:
                async def walk():
                    # Drawn per attempt: a retry must not reuse a leaf
                    # that a rebuild deleted in the meantime.
                    a, s = self._pick_idle()
                    leaf = self.subs[a][s][-1 - self.rng.randrange(
                        self.FANOUT * self.FANOUT)]
                    return await client.ancestors_of(leaf)

                await _retrying(rec, walk)
            else:
                await self._rebuild(client, rec)

    async def _rebuild(self, client, rec):
        a, s = self._pick_idle()
        self.busy.add((a, s))
        try:
            old = self.subs[a][s][0]
            deleted = []

            async def rebuild():
                await client.begin()
                report = await client.delete(old)
                deleted[:] = report["deleted"]
                fresh = await self._make_subtree(
                    client, self.roots[a], "Parts"
                )
                await client.commit()
                return fresh

            start = now()
            fresh = await _retrying(rec, rebuild, client.abort)
            if fresh is not None:
                rec.sample("rebuild", start)
                rec.count("deleted_objects", len(deleted))
                rec.count("deletes")
                self.subs[a][s] = fresh
        finally:
            self.busy.discard((a, s))

    async def finish(self, clients):
        pass

    async def verify(self, clients, restart):
        observed = {}
        expected = {}
        for index, root in enumerate(self.roots):
            expected[root] = self.expected(index)
            observed[root] = set(await clients[0].components_of(root))
        total = len(await clients[0].instances_of("Part"))
        return oracles.check_assemblies(expected, observed, total)


WORKLOADS = {cls.name: cls for cls in (Txmix, DurableChurn, Assembly)}
