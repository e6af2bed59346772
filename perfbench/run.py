"""The repository benchmark: one workload against the stock server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload txmix --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json``): ``txmix``, ``durable-churn`` and
``assembly``.  The server is ``python -m repro.server --port 0
--port-file F`` (plus ``--data-dir`` for ``durable-churn``), started from
this checkout's ``src/``; the load generator is one client process with
one thread driving ``AsyncClient`` over at most two connections in a
closed loop.

The output is a human-readable report (every metric with its unit and
sample count), a ``perfbench-result`` line holding the metadata, the raw
``stats`` payload and every metric, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.  A failed
output oracle prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parser():
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("txmix", "durable-churn", "assembly"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _report(result, units):
    meta = result["meta"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']} commit={meta['commit']} "
          f"host={meta['host']} cpus={meta['cpu_count']} "
          f"python={meta['python']}")
    print("server: " + " ".join(meta["server_argv"]))
    for violation in result["violations"]:
        print(f"ORACLE VIOLATION: {violation}")
    for name, (value, n) in {**result["metrics"],
                             **result["extras"]}.items():
        count = "" if n is None else f"  (n={n})"
        print(f"  {name:34s} {value:14.4f} {units[name]}{count}")


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "server" / "__main__.py").is_file():
        print("perfbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import (
        EXTRA_UNITS,
        Options,
        declared_metrics,
        execute,
        run_loop,
    )

    end_to_end, per_layer = declared_metrics()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    result = run_loop(lambda idle: execute(
        args.workload, args.seed, Options(seconds=args.seconds),
        bool(args.trace), workdir, idle=idle,
    ))
    declared = per_layer if args.trace else end_to_end
    correct = not result["violations"]
    if correct and set(result["metrics"]) != set(declared):
        raise SystemExit(
            "perfbench: computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(declared))}"
        )
    _report(result, {**end_to_end, **per_layer, **EXTRA_UNITS})
    metrics = {}
    if correct:
        metrics = {name: {"value": result["metrics"][name][0],
                          "unit": unit}
                   for name, unit in declared.items()}
    print("perfbench-result " + json.dumps({
        "meta": result["meta"], "stats": result["stats"],
        "metrics": {name: {"value": v, "n": n} for name, (v, n) in
                    {**result["metrics"], **result["extras"]}.items()},
    }, default=str))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
