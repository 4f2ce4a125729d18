"""Correctness oracles computed apart from the program.

Nothing here calls into ``repro``: the journal is read by the benchmark's own
parser of the documented record format, supports are bitset counts over the
raw generated input, completeness comes from the benchmark's own level-wise
enumeration, and query answers and notifications are recomputed from the
generated slide rows.  ``selftest`` plants one error per oracle and fails the
run unless each oracle rejects it.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Items = Tuple[str, ...]
Rows = Dict[Items, int]


class OracleError(AssertionError):
    """An output the oracle does not accept."""


# ---------------------------------------------------------------------------
# journal reader (the documented record layout, parsed independently)
# ---------------------------------------------------------------------------
def read_journal(directory: Path) -> List[dict]:
    """Every record of a journal directory as ``{"slide_id", ..., "patterns"}``.

    ``journal.log`` lists each record's ``(offset, length)`` in
    ``journal.dat``; a record is ``JRNL``, a 4-byte little-endian header
    length, a JSON header with the symbol table ``items`` and the row
    ``stride``, then per pattern a ``stride``-byte bitmask over the symbols
    and a 4-byte little-endian support.
    """
    data = (directory / "journal.dat").read_bytes()
    records = []
    for line in (directory / "journal.log").read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        blob = data[entry["offset"] : entry["offset"] + entry["length"]]
        if blob[:4] != b"JRNL" or len(blob) != entry["length"]:
            raise OracleError(f"slide {entry['slide_id']}: bad record envelope")
        size = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + size])
        symbols, stride = header["items"], header["stride"]
        patterns = []
        offset = 8 + size
        for _ in range(header["pattern_count"]):
            mask = int.from_bytes(blob[offset : offset + stride], "little")
            support = int.from_bytes(blob[offset + stride : offset + stride + 4], "little")
            offset += stride + 4
            items = tuple(sorted(s for bit, s in enumerate(symbols) if mask >> bit & 1))
            patterns.append((items, support))
        if offset != len(blob):
            raise OracleError(f"slide {header['slide_id']}: record length mismatch")
        header["patterns"] = patterns
        records.append(header)
    return records


# ---------------------------------------------------------------------------
# watch oracles
# ---------------------------------------------------------------------------
def item_masks(units: Sequence[Iterable[str]]) -> Dict[str, int]:
    """item -> bitmask over stream positions (bit ``i`` = unit ``i`` holds it)."""
    positions: Dict[str, List[int]] = {}
    for index, unit in enumerate(units):
        for item in unit:
            positions.setdefault(item, []).append(index)
    masks = {}
    for item, where in positions.items():
        mask = 0
        for index in where:
            mask |= 1 << index
        masks[item] = mask
    return masks


def _window_masks(masks: Mapping[str, int], start: int, width: int) -> Dict[str, int]:
    full = (1 << width) - 1
    return {item: (mask >> start) & full for item, mask in masks.items()}


def _connected(items: Items, ends: Mapping[str, Tuple[str, str]]) -> bool:
    """BFS over the pattern's edges: every edge reachable from the first."""
    adjacency: Dict[str, Set[str]] = {}
    for item in items:
        u, v = ends[item]
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    start = ends[items[0]][0]
    seen, queue = {start}, deque([start])
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(adjacency)


def enumerate_frequent(
    masks: Mapping[str, int],
    minsup: int,
    ends: Optional[Mapping[str, Tuple[str, str]]] = None,
) -> Rows:
    """Level-wise enumeration of every frequent itemset of one window.

    With ``ends`` (item -> edge endpoints) only connected edge sets are
    grown: a set is extended by a frequent edge touching one of its
    vertices, which reaches every connected frequent edge set because each
    connected set of k+1 edges contains a connected set of k edges.
    """
    frequent = {
        item: mask for item, mask in masks.items() if mask.bit_count() >= minsup
    }
    order = sorted(frequent)
    found: Rows = {}
    level: Dict[Items, int] = {(item,): frequent[item] for item in order}
    while level:
        for items, mask in level.items():
            found[items] = mask.bit_count()
        grown: Dict[Items, int] = {}
        for items, mask in level.items():
            if ends is None:
                candidates: Iterable[str] = (i for i in order if i > items[-1])
            else:
                touched = {vertex for item in items for vertex in ends[item]}
                candidates = (
                    i
                    for i in order
                    if i not in items and (ends[i][0] in touched or ends[i][1] in touched)
                )
            for item in candidates:
                key = tuple(sorted(items + (item,)))
                if key in grown:
                    continue
                joined = mask & frequent[item]
                if joined.bit_count() >= minsup:
                    grown[key] = joined
        level = grown
    return found


def check_watch(
    records: Sequence[dict],
    masks: Mapping[str, int],
    batch: int,
    window: int,
    minsup: int,
    total_batches: int,
    ends: Optional[Mapping[str, Tuple[str, str]]] = None,
    complete_every: int = 0,
) -> int:
    """Check soundness on every slide and completeness on sampled slides.

    Soundness: slide ids are 0..total_batches-1 in order, the window bounds
    and column count follow from the geometry, the record's minsup is the
    configured one, and every pattern's support equals the bitset count over
    the window's raw units and is at least minsup (and, with ``ends``, its
    edges are connected).  Completeness on every ``complete_every``-th slide
    (and the last): the level-wise enumeration finds exactly the journalled
    set.  Returns the number of patterns checked.
    """
    if [record["slide_id"] for record in records] != list(range(total_batches)):
        raise OracleError("slide ids are not contiguous from 0")
    checked = 0
    for record in records:
        slide = record["slide_id"]
        first = max(0, slide - window + 1)
        width = (slide - first + 1) * batch
        if (record["first_batch"], record["last_batch"]) != (first, slide):
            raise OracleError(f"slide {slide}: window bounds {record['first_batch']}..")
        if record["num_columns"] != width:
            raise OracleError(f"slide {slide}: {record['num_columns']} columns, want {width}")
        if record["minsup"] != minsup:
            raise OracleError(f"slide {slide}: minsup {record['minsup']}, want {minsup}")
        local = _window_masks(masks, first * batch, width)
        rows: Rows = {}
        for items, support in record["patterns"]:
            if items in rows:
                raise OracleError(f"slide {slide}: pattern {items} journalled twice")
            rows[items] = support
            if any(item not in local for item in items):
                raise OracleError(f"slide {slide}: unknown item in {items}")
            mask = local[items[0]]
            for item in items[1:]:
                mask &= local[item]
            if mask.bit_count() != support:
                raise OracleError(
                    f"slide {slide}: {items} support {support}, input says {mask.bit_count()}"
                )
            if support < minsup:
                raise OracleError(f"slide {slide}: {items} support {support} < minsup")
            if ends is not None and not _connected(items, ends):
                raise OracleError(f"slide {slide}: {items} is not connected")
        checked += len(rows)
        sampled = complete_every and (slide % complete_every == 0 or slide == total_batches - 1)
        if sampled and enumerate_frequent(local, minsup, ends) != rows:
            raise OracleError(f"slide {slide}: journalled set is not the frequent set")
    return checked


# ---------------------------------------------------------------------------
# serve-mixed oracles
# ---------------------------------------------------------------------------
def _rank_order_ok(rows: List[Tuple[int, Items, int]]) -> bool:
    return all(a[2] >= b[2] for a, b in zip(rows, rows[1:]))


def expected_answer(
    family: str, params: dict, slides: Sequence[Tuple[int, Rows]], upto: int
) -> dict:
    """The benchmark's own evaluation of one query over slides 0..``upto``.

    ``slides[i]`` is slide ``i``, so a slide range is a list slice.
    """
    if family == "history":
        wanted = tuple(params["items"])
        curve = [(slide, rows.get(wanted, 0)) for slide, rows in slides[: upto + 1]]
        present = [slide for slide, support in curve if support]
        return {
            "history": curve,
            "first_frequent": present[0] if present else None,
            "last_frequent": present[-1] if present else None,
            "peak_support": max((s for _, s in curve), default=0),
        }
    lo, hi = params.get("lo", 0), min(params.get("hi", upto), upto)
    within = set(params.get("items", ()))
    picked = []
    for slide, rows in slides[lo : hi + 1]:
        for items, support in rows.items():
            if family == "select_contains" and params["item"] not in items:
                continue
            if family == "select_support" and support < params["tau"]:
                continue
            if family == "contained_in" and not within.issuperset(items):
                continue
            picked.append((slide, items, support))
    return {"rows": picked}


def check_answer(
    family: str,
    params: dict,
    answer: dict,
    slides: Sequence[Tuple[int, Rows]],
    lowest: int,
    highest: int,
) -> int:
    """Accept ``answer`` if it equals the oracle over some prefix in range.

    The server answers from the snapshot current when the query ran, which
    holds every slide the benchmark saw indexed before sending (``lowest``)
    and at most the slides appended before the response came (``highest``).
    ``top_k`` is checked by its defining property rather than one tie order:
    the answer's rows are real rows of the prefix, in non-increasing
    support, and their supports are the k largest.  Returns the prefix used.
    """
    for upto in range(highest, lowest - 1, -1):
        want = expected_answer(family, params, slides, upto)
        if family == "history":
            got = {
                "history": [(p["slide"], p["support"]) for p in answer["history"]],
                "first_frequent": answer["first_frequent"],
                "last_frequent": answer["last_frequent"],
                "peak_support": answer["peak_support"],
            }
            if got == want:
                return upto
            continue
        got_rows = [(m["slide"], tuple(m["items"]), m["support"]) for m in answer["matches"]]
        if answer["count"] != len(got_rows):
            raise OracleError(f"{family}: count {answer['count']} != {len(got_rows)} rows")
        rows = want["rows"]
        if family.startswith("topk"):
            k = params["k"]
            best = sorted((support for _, _, support in rows), reverse=True)[:k]
            real = set(rows)
            if (
                [s for _, _, s in got_rows] == best
                and all(row in real for row in got_rows)
                and len(set(got_rows)) == len(got_rows)
                and _rank_order_ok(got_rows)
            ):
                return upto
        elif got_rows == sorted(rows, key=lambda r: (r[0], len(r[1]), r[1])):
            return upto
    raise OracleError(f"{family} {params}: answer matches no prefix in {lowest}..{highest}")


def expected_notifications(
    slides: Sequence[Tuple[int, Rows]],
    item: str,
    after: int,
    upto: int,
    subscription: str,
) -> List[dict]:
    """The diff of consecutive slides' rows containing ``item``, slide order.

    Per slide: enters, then exits, then updates, each in (size, items) order
    (the documented delivery order of one commit's transitions).
    """
    def matching(rows: Rows) -> Rows:
        return {items: support for items, support in rows.items() if item in items}

    frames = []
    before = matching(slides[after][1])
    for slide in range(after + 1, upto + 1):
        now = matching(slides[slide][1])
        key = lambda items: (len(items), items)  # noqa: E731
        for items in sorted(now.keys() - before.keys(), key=key):
            frames.append((slide, "enter", items, now[items], None))
        for items in sorted(before.keys() - now.keys(), key=key):
            frames.append((slide, "exit", items, 0, before[items]))
        for items in sorted(before.keys() & now.keys(), key=key):
            if before[items] != now[items]:
                frames.append((slide, "update", items, now[items], before[items]))
        before = now
    return [
        {
            "subscription": subscription,
            "slide": slide,
            "event": event,
            "items": list(items),
            "support": support,
            "previous_support": previous,
        }
        for slide, event, items, support, previous in frames
    ]


def check_notifications(received: Sequence[dict], expected: Sequence[dict]) -> None:
    """The SSE stream equals the oracle's diff: exactly once, in slide order."""
    if list(received) != list(expected):
        for position, (got, want) in enumerate(zip(received, expected)):
            if got != want:
                raise OracleError(f"notification {position}: got {got}, want {want}")
        raise OracleError(f"{len(received)} notifications, want {len(expected)}")


# ---------------------------------------------------------------------------
# self-test: every oracle rejects a planted error
# ---------------------------------------------------------------------------
def selftest() -> None:
    """Plant one error per oracle on tiny inputs; raise unless each is caught."""
    import random

    rng = random.Random(7)
    ends = {f"e{n}": pair for n, pair in enumerate(
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("d", "e"), ("x", "y")]
    )}
    units = [tuple(sorted(rng.sample(sorted(ends), rng.randint(2, 4)))) for _ in range(60)]
    masks = item_masks(units)
    batch, window, minsup, total = 10, 3, 4, 6
    records = []
    for slide in range(total):
        first = max(0, slide - window + 1)
        width = (slide - first + 1) * batch
        rows = enumerate_frequent(_window_masks(masks, first * batch, width), minsup, ends)
        records.append({
            "slide_id": slide, "first_batch": first, "last_batch": slide,
            "num_columns": width, "minsup": minsup,
            "patterns": sorted(rows.items(), key=lambda r: (len(r[0]), r[0])),
        })

    def rejects(records_variant, what: str, use_ends=True) -> None:
        try:
            check_watch(records_variant, masks, batch, window, minsup, total,
                        ends if use_ends else None, complete_every=1)
        except OracleError:
            return
        raise OracleError(f"self-test: the watch oracle accepted {what}")

    check_watch(records, masks, batch, window, minsup, total, ends, complete_every=1)
    planted = [dict(r, patterns=list(r["patterns"])) for r in records]
    items, support = planted[4]["patterns"][0]
    planted[4]["patterns"][0] = (items, support + 1)
    rejects(planted, "a support off by one")
    planted = [dict(r, patterns=list(r["patterns"])) for r in records]
    del planted[5]["patterns"][-1]
    rejects(planted, "a missing pattern")
    planted = [dict(r, patterns=list(r["patterns"])) for r in records]
    planted[2]["patterns"].append((("e0", "e5"), 1))
    rejects(planted, "a disconnected pattern")
    rejects(records[:3] + records[4:], "a skipped slide")

    slides = [(s, {("a",): 10 + s, ("a", "b"): 5 + (s % 3), ("b",): 7}) for s in range(4)]
    answer = {"matches": [{"slide": 3, "items": ["a"], "support": 13},
                          {"slide": 2, "items": ["a"], "support": 12}], "count": 2}
    params = {"k": 2}
    check_answer("topk_all", params, answer, slides, 3, 3)
    for label, bad in (
        ("an answer support off by one",
         {"matches": [dict(answer["matches"][0], support=14), answer["matches"][1]], "count": 2}),
        ("an answer missing a row", {"matches": answer["matches"][:1], "count": 1}),
    ):
        try:
            check_answer("topk_all", params, bad, slides, 3, 3)
        except OracleError:
            continue
        raise OracleError(f"self-test: the answer oracle accepted {label}")

    expected = expected_notifications(slides, "a", 0, 3, "sub-0")
    check_notifications(expected, expected)
    try:
        check_notifications(expected[:1] + expected, expected)
    except OracleError:
        return
    raise OracleError("self-test: the notification oracle accepted a duplicate")
