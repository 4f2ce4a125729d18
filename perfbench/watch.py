"""watch-graph and watch-zipf: ``StreamSubgraphMiner.watch`` into a DiskJournal.

One round builds a fresh miner and journal and watches the whole
pre-generated stream: ``window`` fill slides, then ``slides`` steady-state
slides.  A run repeats whole rounds until ``--seconds`` have passed.  Set-up
(construction plus the fill slides) is timed apart from the steady state, so
the latency samples and the throughput see only full-window slides.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import time
from pathlib import Path
from typing import Dict, List

import gen
import oracles
import spans
from stats import mean, p50, p90, proc_status

clock = time.perf_counter

WATCH_SPEC = {
    "watch-graph": dict(gen.GRAPH, algorithm="vertical_direct", connected_only=True),
    "watch-zipf": dict(gen.ZIPF, algorithm="vertical", connected_only=False),
}


def _inputs(workload: str, seed: int):
    """(program input units, oracle item units, ends or None, digest)."""
    from repro.graph.edge import Edge
    from repro.graph.graph import GraphSnapshot

    spec = WATCH_SPEC[workload]
    count = gen.stream_units(spec)
    if workload == "watch-zipf":
        raw = gen.zipf_stream(seed, count)
        return raw, raw, None, gen.zipf_digest(raw)
    raw = gen.graph_stream(seed, count)
    edges: Dict[tuple, Edge] = {}
    units = [GraphSnapshot([edges.setdefault(p, Edge(*p)) for p in snap]) for snap in raw]
    return units, raw, edges, gen.graph_digest(raw)


def _stamped(units: list, handed: List[float]):
    """Yield units, recording when each is handed to the miner."""
    append = handed.append
    for unit in units:
        append(clock())
        yield unit


def _one_round(workload: str, units: list, directory: Path) -> dict:
    from repro import StreamSubgraphMiner
    from repro.history import DiskJournal
    from repro.stream.stream import GraphStream, TransactionStream

    spec = WATCH_SPEC[workload]
    batch, window = spec["batch"], spec["window"]
    handed: List[float] = []
    sealed: List[float] = []
    started = clock()
    journal = DiskJournal(directory)

    def sink(record) -> None:
        journal.append(record)
        sealed.append(clock())

    miner = StreamSubgraphMiner(
        window_size=window, batch_size=batch, algorithm=spec["algorithm"], on_slide=sink
    )
    feed = _stamped(units, handed)
    if workload == "watch-graph":
        stream = GraphStream(feed, registry=miner.registry, batch_size=batch)
    else:
        stream = TransactionStream(feed, batch_size=batch)
    miner.watch(stream, spec["minsup"], connected_only=spec["connected_only"])
    journal_kb = journal.disk_size_bytes() / 1024
    journal.close()
    steady = range(window, len(sealed))
    return {
        "setup_s": sealed[window - 1] - started,
        "steady_s": sealed[-1] - sealed[window - 1],
        "steady_units": len(steady) * batch,
        "slide_ms": [(sealed[k] - handed[(k + 1) * batch - 1]) * 1e3 for k in steady],
        "unit_ms": [
            (sealed[k] - handed[i]) * 1e3 for k in steady for i in range(k * batch, (k + 1) * batch)
        ],
        "slide_windows": [(handed[(k + 1) * batch - 1], sealed[k]) for k in steady],
        "journal_kb": journal_kb,
        "registry": miner.registry,
        "cache": (miner.matrix.cache_stats.row_hits, miner.matrix.cache_stats.row_misses),
    }


def _round(workload: str, units: list, directory: Path, reference: dict) -> dict:
    """One round, checked against the first.

    The first round's journal stays on disk for the oracles (checked after
    the memory peak is read); every later round must journal the same bytes.
    """
    result = _one_round(workload, units, directory)
    data = hashlib.sha256((directory / "journal.dat").read_bytes()).hexdigest()
    if "sha" not in reference:
        # The peak is read after one round, so it never counts the samples
        # later rounds add to this process.
        reference.update(
            sha=data,
            directory=directory,
            registry=result["registry"],
            hwm_kib=proc_status()["VmHWM"],
        )
    else:
        if data != reference["sha"]:
            raise oracles.OracleError("a repeated round journalled different bytes")
        shutil.rmtree(directory)
    return result


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    spec = WATCH_SPEC[workload]
    batch, window, slides = spec["batch"], spec["window"], spec["slides"]
    units, oracle_units, edges, digest = _inputs(workload, seed)
    reference: dict = {}
    # The pre-generated input stands in for a stream that would arrive over
    # time; freezing it keeps the collector from re-scanning it on every
    # full collection inside the program's watch.
    gc.collect()
    gc.freeze()
    base_kib = proc_status()["VmRSS"]
    plain: List[dict] = []
    traced_rounds: List[dict] = []
    tracer = spans.Tracer()
    began = clock()
    # Whole rounds until ``seconds`` have passed; a traced run alternates
    # untraced and traced rounds so both see the same machine conditions.
    while not plain or clock() - began < seconds:
        plain.append(_round(workload, units, workdir / f"round{len(plain)}", reference))
        if traced:
            spans.install_watch(tracer)
            try:
                traced_rounds.append(
                    _round(workload, units, workdir / f"traced{len(traced_rounds)}", reference)
                )
            finally:
                tracer.uninstall()
    peak_mb = (reference["hwm_kib"] - base_kib) / 1024
    patterns = _check_reference(workload, reference, oracle_units, edges)
    attempted = (len(plain) + len(traced_rounds)) * (window + slides) * (batch + 1)
    if traced:
        metrics = watch_layers(tracer, traced_rounds, patterns)
        untraced_slide = p50([v for r in plain for v in r["slide_ms"]])
        traced_slide = p50([v for r in traced_rounds for v in r["slide_ms"]])
        metrics["trace.overhead_pct"] = (traced_slide / untraced_slide - 1) * 100
        tracer.dump(workdir / f"spans-{workload}.jsonl")
        return {"metrics": metrics, "attempted": attempted, "digest": digest}
    metrics = {
        "setup_s": p50([r["setup_s"] for r in plain]),
        "peak_rss_mb": peak_mb,
        "ops_per_s": sum(r["steady_units"] for r in plain) / sum(r["steady_s"] for r in plain),
        "op_p50_ms": p50([v for r in plain for v in r["unit_ms"]]),
        "op_p90_ms": p90([v for r in plain for v in r["unit_ms"]]),
        "slide_p50_ms": p50([v for r in plain for v in r["slide_ms"]]),
        "slide_p90_ms": p90([v for r in plain for v in r["slide_ms"]]),
        "journal_kb": mean([r["journal_kb"] for r in plain]),
    }
    return {"metrics": metrics, "attempted": attempted, "digest": digest}


def _check_reference(workload: str, reference: dict, oracle_units, edges) -> float:
    """Run the oracles on the first round's journal; mean patterns per slide.

    On watch-graph the registry's item for each input edge is read once and
    must be a bijection; supports are then counted over the raw edge pairs,
    so an encoding fault shows as a support mismatch.
    """
    spec = WATCH_SPEC[workload]
    window = spec["window"]
    records = oracles.read_journal(reference["directory"])
    ends = None
    item_units = oracle_units
    if edges is not None:
        registry = reference["registry"]
        item_of = {pair: registry.item_for(edge) for pair, edge in edges.items()}
        if len(set(item_of.values())) != len(item_of) or len(registry) != len(item_of):
            raise oracles.OracleError("edge registry is not a bijection on the input edges")
        ends = {item: pair for pair, item in item_of.items()}
        item_units = [[item_of[pair] for pair in snap] for snap in oracle_units]
    oracles.check_watch(
        records,
        oracles.item_masks(item_units),
        spec["batch"],
        window,
        spec["minsup"],
        window + spec["slides"],
        ends,
        complete_every=10,
    )
    return mean([len(r["patterns"]) for r in records[window:]])


def watch_layers(tracer: spans.Tracer, rounds: List[dict], patterns: float) -> Dict[str, float]:
    """Per-layer figures from the spans of the traced rounds' steady state."""
    steady = [(r["slide_windows"][0][0], r["slide_windows"][-1][1]) for r in rounds]
    kept = [s for s in tracer.spans if any(lo <= s[3] <= hi for lo, hi in steady)]
    by_name: Dict[str, list] = {}
    for span in kept:
        by_name.setdefault(span[2], []).append(span)

    def durations(name: str) -> List[float]:
        return [(s[4] - s[3]) * 1e3 for s in by_name.get(name, [])]

    encode_per_batch: Dict[int, float] = {}
    for s in by_name.get("graph.encode", []):
        encode_per_batch[s[1]] = encode_per_batch.get(s[1], 0.0) + (s[4] - s[3]) * 1e3
    algorithm_in: Dict[int, float] = {}
    for s in by_name.get("algorithms.mine", []):
        algorithm_in[s[1]] = algorithm_in.get(s[1], 0.0) + (s[4] - s[3]) * 1e3
    mines = sorted(by_name.get("core.mine", []), key=lambda s: s[3])
    appends = sorted(by_name.get("journal.append", []), key=lambda s: s[3])
    seal = [(a[4] - m[4]) * 1e3 for m, a in zip(mines, appends)]
    hits = sum(r["cache"][0] for r in rounds)
    misses = sum(r["cache"][1] for r in rounds)

    top_level = sorted((s[3], s[4]) for s in kept if s[1] == 0)
    covered = total = 0.0
    for start, end in (w for r in rounds for w in r["slide_windows"]):
        total += end - start
        reach = start
        for s_start, s_end in top_level:
            if s_end <= reach or s_start >= end:
                continue
            covered += min(s_end, end) - max(s_start, reach)
            reach = min(s_end, end)
    return {
        "stream.batch_ms": p50(durations("stream.batch")),
        "graph.encode_ms": p50(list(encode_per_batch.values())) if encode_per_batch else 0.0,
        "storage.commit_ms": p50(durations("storage.commit")),
        "storage.row_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "algorithms.mine_ms": p50(durations("algorithms.mine")),
        "algorithms.mine_p90_ms": p90(durations("algorithms.mine")),
        "algorithms.intersections": mean([s[5] for s in by_name["algorithms.mine"]]),
        "algorithms.patterns": patterns,
        "core.result_ms": p50([(m[4] - m[3]) * 1e3 - algorithm_in.get(m[0], 0.0) for m in mines]),
        "journal.seal_ms": p50(seal),
        "journal.record_kb": mean([s[5] for s in by_name["journal.encode"]]) / 1024,
        "trace.coverage": covered / total,
    }
