"""Seeded input generators owned by the benchmark.

Every workload's input comes from here and from nothing in ``repro.datasets``,
so a change to the program's own generators cannot change a workload.  The
generators use only ``random.Random`` draws through precomputed cumulative
weights, so the same seed gives the same input on every run.

The shape of each input -- the edge universe and its popularity ranking,
the item ranking, the pattern universe -- is fixed; ``--seed`` draws the
stream from that shape.  Seeds then vary the data but hardly the amount of
work (the mining cost of a Zipf stream swings by half with the alphabetical
position of its popular items), so runs on different seeds are comparable.
Each input has a SHA-256 digest over a canonical text form; ``run.py``
checks it against the table in ``README.md``.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

#: (u, v) with u < v: one undirected edge between two vertex labels.
EdgePair = Tuple[str, str]

# ---------------------------------------------------------------------------
# workload geometry (README "Inputs" documents the same numbers)
# ---------------------------------------------------------------------------
GRAPH = {
    "vertices": 32,
    "degree": 4,  # universe edges drawn per vertex
    "batch": 400,
    "window": 10,
    "slides": 110,  # steady-state slides per round
    "minsup": 40,  # absolute: 1% of the 4000-snapshot window
    "edges_lo": 8,
    "edges_hi": 12,
}
ZIPF = {
    "items": 120,
    "exponent": 1.0,
    "batch": 100,
    "window": 20,
    "slides": 110,
    "minsup": 36,  # absolute: 1.8% of the 2000-transaction window
    "len_lo": 6,
    "len_hi": 12,
}
SERVED = {
    "items": 60,
    "patterns": 400,
    "columns": 2000,
    "minsup": 100,
    "base_slides": 400,
    "held_back": 160,
}


def stream_units(spec: dict) -> int:
    """Units in one watch round: ``window`` fill batches plus the steady ones."""
    return (spec["window"] + spec["slides"]) * spec["batch"]


def _zipf_cum(count: int, exponent: float) -> List[float]:
    return list(accumulate(1.0 / (rank + 1) ** exponent for rank in range(count)))


def _draw(rng: random.Random, cum: Sequence[float]) -> int:
    return bisect_right(cum, rng.random() * cum[-1])


def digest_lines(lines) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()[:16]


# ---------------------------------------------------------------------------
# watch-graph: connected graph snapshots grown over a fixed edge universe
# ---------------------------------------------------------------------------
def graph_stream(seed: int, units: int) -> List[Tuple[EdgePair, ...]]:
    """``units`` connected snapshots of ``edges_lo..edges_hi`` edges each.

    A fixed universe graph over ``vertices`` labels gives each vertex a few
    neighbours; edge and vertex popularity follow Zipf weights over a fixed
    ranking.  A snapshot starts at a popular vertex and grows by attaching a
    weighted incident edge of a vertex it already touches, so every snapshot
    is connected and popular neighbourhoods recur across snapshots.
    """
    shape = random.Random("graph-shape")
    labels = [f"v{index:02d}" for index in range(GRAPH["vertices"])]
    universe = set()
    for u in labels:
        for v in shape.sample(labels, GRAPH["degree"] + 1):
            if u != v:
                universe.add((min(u, v), max(u, v)))
    edges = sorted(universe)
    shape.shuffle(edges)
    edge_weight = {edge: 1.0 / (rank + 1) ** 0.7 for rank, edge in enumerate(edges)}
    incident: Dict[str, List[EdgePair]] = {label: [] for label in labels}
    for edge in sorted(edges):
        incident[edge[0]].append(edge)
        incident[edge[1]].append(edge)
    incident_cum = {
        label: list(accumulate(edge_weight[edge] for edge in incident[label]))
        for label in labels
    }
    order = labels[:]
    shape.shuffle(order)
    rng = random.Random(f"graph:{seed}")
    vertex_cum = _zipf_cum(len(order), 0.8)
    stream: List[Tuple[EdgePair, ...]] = []
    for _ in range(units):
        size = rng.randint(GRAPH["edges_lo"], GRAPH["edges_hi"])
        touched = [order[_draw(rng, vertex_cum)]]
        chosen: Dict[EdgePair, None] = {}
        attempts = 0
        while len(chosen) < size and attempts < 4 * size:
            attempts += 1
            vertex = touched[rng.randrange(len(touched))]
            options = incident[vertex]
            if not options:
                continue
            edge = options[_draw(rng, incident_cum[vertex])]
            if edge in chosen:
                continue
            chosen[edge] = None
            other = edge[1] if edge[0] == vertex else edge[0]
            if other not in touched:
                touched.append(other)
        stream.append(tuple(sorted(chosen)))
    return stream


def graph_digest(stream: Sequence[Tuple[EdgePair, ...]]) -> str:
    return digest_lines(" ".join(f"{u}-{v}" for u, v in snap) for snap in stream)


# ---------------------------------------------------------------------------
# watch-zipf: Zipf-skewed market-basket transactions
# ---------------------------------------------------------------------------
def zipf_stream(seed: int, units: int) -> List[Tuple[str, ...]]:
    """``units`` transactions of ``len_lo..len_hi`` distinct Zipf-drawn items."""
    names = [f"i{index:03d}" for index in range(ZIPF["items"])]
    random.Random("zipf-shape").shuffle(names)
    rng = random.Random(f"zipf:{seed}")
    cum = _zipf_cum(len(names), ZIPF["exponent"])
    stream: List[Tuple[str, ...]] = []
    for _ in range(units):
        size = rng.randint(ZIPF["len_lo"], ZIPF["len_hi"])
        basket = set()
        while len(basket) < size:
            basket.add(names[_draw(rng, cum)])
        stream.append(tuple(sorted(basket)))
    return stream


def zipf_digest(stream: Sequence[Tuple[str, ...]]) -> str:
    return digest_lines(" ".join(transaction) for transaction in stream)


# ---------------------------------------------------------------------------
# serve-mixed: a journal of slide records with drifting supports
# ---------------------------------------------------------------------------
#: One synthetic slide: (slide_id, {pattern items: support}).
ServedSlide = Tuple[int, Dict[Tuple[str, ...], int]]


def served_items() -> List[str]:
    return [f"s{index:02d}" for index in range(SERVED["items"])]


def served_slides(seed: int) -> List[ServedSlide]:
    """Base plus held-back slides of a drifting pattern population.

    A fixed universe of ``patterns`` itemsets (1 to 4 Zipf-drawn items) each
    carries a support that random-walks (seeded) from slide to slide; a slide holds the
    patterns whose support is at least ``minsup``.  Supports change on almost
    every slide, so a standing query with ``update`` events fires per slide.
    """
    shape = random.Random("served-shape")
    names = served_items()
    shape.shuffle(names)
    cum = _zipf_cum(len(names), 1.0)
    universe: Dict[Tuple[str, ...], int] = {}
    while len(universe) < SERVED["patterns"]:
        size = 1 + _draw(shape, _zipf_cum(4, 1.2))
        items = set()
        while len(items) < size:
            items.add(names[_draw(shape, cum)])
        key = tuple(sorted(items))
        if key not in universe:
            universe[key] = shape.randint(20, 400 // len(key))
    rng = random.Random(f"served:{seed}")
    patterns = sorted(universe)
    support = [universe[key] for key in patterns]
    total = SERVED["base_slides"] + SERVED["held_back"]
    slides: List[ServedSlide] = []
    for slide_id in range(total):
        for position in range(len(support)):
            support[position] = min(
                SERVED["columns"], max(0, support[position] + rng.randint(-6, 6))
            )
        slides.append(
            (
                slide_id,
                {
                    key: value
                    for key, value in zip(patterns, support)
                    if value >= SERVED["minsup"]
                },
            )
        )
    return slides


def served_digest(slides: Sequence[ServedSlide]) -> str:
    return digest_lines(
        f"{slide_id} "
        + " ".join(f"{'.'.join(items)}:{value}" for items, value in sorted(rows.items()))
        for slide_id, rows in slides
    )
