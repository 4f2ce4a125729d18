"""Engine-bound benchmark of the stream miner and its server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload watch-graph --seed 1 --seconds 20 --trace 0

Workloads: ``watch-graph``, ``watch-zipf``, ``serve-mixed`` (see README.md).
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs half the time untraced and half with span wrappers and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``).  Every output is checked by
the oracles in ``oracles.py``; a wrong output makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("watch-graph", "watch-zipf", "serve-mixed")


def metric_units(trace: bool) -> dict:
    """name -> unit of the metrics a run prints, in ``BENCHMARK.json`` order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def recorded_digests() -> dict:
    """``(workload, seed) -> digest`` from the README's input table."""
    table = {}
    pattern = re.compile(r"^\| `?([a-z-]+)`? \| (\w+) \| `([0-9a-f]{16})` \|", re.M)
    for workload, seed, digest in pattern.findall((HERE / "README.md").read_text("utf-8")):
        table[(workload, seed)] = digest
    return table


def probe_digests() -> dict:
    """Digests of small fixed-seed inputs: they pin the generators themselves."""
    import gen

    return {
        "watch-graph": gen.graph_digest(gen.graph_stream(0, 2000)),
        "watch-zipf": gen.zipf_digest(gen.zipf_stream(0, 2000)),
        "serve-mixed": gen.served_digest(gen.served_slides(0)[:50]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--print-digests", action="store_true", help="print the probe and input digests and exit"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import oracles

    if args.print_digests:
        return _print_digests(args.workload, args.seed)
    table = recorded_digests()
    probe = probe_digests()[args.workload]
    if table.get((args.workload, "probe")) != probe:
        print(
            f"error: {args.workload} probe digest {probe} differs from README.md",
            file=sys.stderr,
        )
        return 3
    oracles.selftest()

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    correct = True
    try:
        if args.workload == "serve-mixed":
            import serve as workload
        else:
            import watch as workload
        try:
            result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        except oracles.OracleError as exc:
            print(f"error: output check failed: {exc}", file=sys.stderr)
            correct = False
            result = None
        if args.trace:
            spans_file = next(workdir.glob("spans-*.jsonl"), None)
            if spans_file is not None:
                shutil.copy(spans_file, ROOT / ".perfbench" / spans_file.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 0
    recorded = table.get((args.workload, str(args.seed)))
    if recorded is not None and recorded != result["digest"]:
        print(f"error: input digest {result['digest']} differs from README.md", file=sys.stderr)
        return 3

    # A layer the workload does not exercise did no work: it reports 0.
    measured = result["metrics"]
    units = metric_units(bool(args.trace))
    unknown = set(measured) - set(units)
    if unknown or (not args.trace and set(units) - set(measured)):
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 4
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload:12} {name:38} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result.get("failed", 0),
                "metrics": metrics,
            }
        )
    )
    return 0


def _print_digests(workload: str, seed: int) -> int:
    import gen

    print(f"| `{workload}` | probe | `{probe_digests()[workload]}` |")
    if workload == "watch-graph":
        digest = gen.graph_digest(gen.graph_stream(seed, gen.stream_units(gen.GRAPH)))
    elif workload == "watch-zipf":
        digest = gen.zipf_digest(gen.zipf_stream(seed, gen.stream_units(gen.ZIPF)))
    else:
        digest = gen.served_digest(gen.served_slides(seed))
    print(f"| `{workload}` | {seed} | `{digest}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
