"""Per-layer self time from a traced server's spans.

A span's self time is its active time minus the active time of its
direct children; every layer's self time plus the residual (server CPU
the spans do not cover: event loop, framing, sockets, tracing itself)
adds up to the server CPU of the window.  ``os.fsync`` blocks on the
device rather than using CPU, so its span is reported on its own
(``journal.fsync_us``) and kept out of that sum.
"""

from __future__ import annotations

import array
import json
import math

#: Layers of the ledger, in request-path order.  A span's layer is the
#: prefix of its name (``txn.commit`` -> ``txn``).
LAYERS = ("protocol", "dispatch", "locking", "txn", "core", "journal",
          "mvcc", "lockdep")

#: Ops whose handler self time is reported (every op the workloads use).
DISPATCH_OPS = ("begin", "commit", "abort", "make", "resolve", "set_value",
                "delete", "components_of", "ancestors_of")

TXN_DATA_OPS = ("txn.read", "txn.write", "txn.insert", "txn.make",
                "txn.delete")

#: Spans that wait rather than compute (see the module docstring).
WAITS = ("journal.fsync",)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def load_spans(path):
    """Read the file the traced server writes on SIGTERM."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        cols = {}
        for column in header["columns"]:
            cols[column] = array.array("q")
            cols[column].fromfile(handle, header["spans"])
    return header["names"], cols


class Ledger:
    """Spans whose request began inside ``[t0, t1]`` (monotonic ns)."""

    def __init__(self, names, cols, t0, t1):
        parent = cols["parent"]
        start = cols["start"]
        end = cols["end"]
        active = cols["active"]
        total = len(parent)
        root = array.array("q", bytes(8 * total))
        child_active = array.array("q", bytes(8 * total))
        for index in range(total):
            up = parent[index]
            root[index] = index if up < 0 else root[up]
            if up >= 0:
                child_active[up] += active[index]
        #: span name -> [calls, total self ns] over the kept spans.
        self.calls = {}
        #: Suspended time (ms) of each lock-plan acquisition that waited.
        self.waits = []
        name_col = cols["name"]
        suspends = cols["suspends"]
        for index in range(total):
            if end[index] == 0 or not t0 <= start[root[index]] <= t1:
                continue
            name = names[name_col[index]]
            entry = self.calls.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += active[index] - child_active[index]
            if name == "locking.acquire_plan" and suspends[index]:
                self.waits.append(
                    (end[index] - start[index] - active[index]) / 1e6
                )
        self.waits.sort()
        self.requests = self.calls.get("protocol.decode", [0, 0])[0]

    def self_us(self, *names):
        """Mean self time per call in µs (0 when never called), and n."""
        calls = sum(self.calls.get(name, [0, 0])[0] for name in names)
        total = sum(self.calls.get(name, [0, 0])[1] for name in names)
        return (total / calls / 1e3 if calls else 0.0), calls

    def layer_us(self, layer):
        """Total self time of a layer's computing spans, in µs."""
        return sum(total for name, (_calls, total) in self.calls.items()
                   if name.split(".", 1)[0] == layer
                   and name not in WAITS) / 1e3

    def metrics(self, server_cpu_s, commits):
        """The traced per-layer metrics: name -> (value, n).

        ``*_us`` are mean self times per call, ``*_per_txn`` sums per
        committed transaction, ``ledger.*`` self time per request.
        """
        requests = max(self.requests, 1)
        per_txn = max(commits, 1)
        metrics = {
            "protocol.decode_us": self.self_us("protocol.decode"),
            "protocol.encode_us": self.self_us("protocol.encode"),
            "locking.plan_us": self.self_us("locking.plan_instance",
                                            "locking.plan_composite"),
            "locking.acquire_us": self.self_us("locking.acquire_plan"),
            "locking.wait_ms_p99": (percentile(self.waits, 0.99),
                                    len(self.waits)),
            "txn.begin_us": self.self_us("txn.begin"),
            "txn.op_us": self.self_us(*TXN_DATA_OPS),
            "txn.commit_us": self.self_us("txn.commit"),
            "txn.abort_us": self.self_us("txn.abort"),
            "core.components_of_us": self.self_us("core.components_of"),
            "core.ancestors_of_us": self.self_us("core.ancestors_of"),
            "core.delete_us": self.self_us("core.delete"),
            "journal.hook_us_per_txn": (self.layer_us("journal") / per_txn,
                                        commits),
            "journal.fsync_us": self.self_us("journal.fsync"),
            "mvcc.hook_us_per_txn": (self.layer_us("mvcc") / per_txn,
                                     commits),
            "lockdep.on_grant_us": self.self_us("lockdep.on_grant"),
            "lockdep.hook_us_per_txn": (self.layer_us("lockdep") / per_txn,
                                        commits),
        }
        for op in DISPATCH_OPS:
            metrics[f"dispatch.self_us.{op}"] = self.self_us(f"dispatch.{op}")
        cpu_us = server_cpu_s * 1e6 / requests
        covered = 0.0
        for layer in LAYERS:
            share = self.layer_us(layer) / requests
            metrics[f"ledger.{layer}_us_per_request"] = (share, self.requests)
            covered += share
        metrics["server.cpu_us_per_request"] = (cpu_us, self.requests)
        metrics["server.loop_us_per_request"] = (cpu_us - covered,
                                                 self.requests)
        return metrics
