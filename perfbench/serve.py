"""serve-mixed: the real ``repro serve --follow`` process under mixed load.

The benchmark process builds a journal of ``base_slides`` records through
the public ``SlideRecord``/``DiskJournal`` API, starts ``python3 -m repro
serve`` on it and then, from one single-threaded ``selectors`` loop:

* sends a seeded, closed-loop mix of ``POST /query`` families on one
  keep-alive connection;
* appends the held-back slide records to the same journal directory on a
  fixed schedule spread evenly over the run (the deployed ``watch`` writer +
  ``serve --follow`` reader path);
* reads one SSE subscription whose standing query fires ``update`` events,
  so nearly every appended slide produces a frame.

Two connections in all, at most ``nproc`` on the 2-CPU reference box.  The
server is stopped with SIGTERM; a non-zero exit or an SSE stream that does
not end with its ``shutdown`` frame counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

import gen
import oracles
import spans
from stats import mean, p50, p90, proc_status

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: ``repro serve --follow`` interval: a slide waits on average half of it.
FOLLOW_S = 0.02
#: Server starts per run; ``setup_s`` is their median.
LAUNCHES = 3
#: One round of the closed-loop query mix: family -> queries per round.
#: ``topk_all`` ranks every row of the journal, a few hundred times the
#: cost of any other family, so it gets one query in 4000: that keeps it
#: near a tenth of the server's busy time and the mix is not one query.
ROUND = {
    "topk_latest": 960,
    "topk_all": 1,
    "select_contains": 800,
    "select_support": 800,
    "contained_in": 800,
    "history": 639,
}
#: Slides a range query looks back over.
RECENT = 5
TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# a minimal HTTP/1.1 + SSE client
# ---------------------------------------------------------------------------
def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _take_response(buffer: bytearray) -> Optional[Tuple[int, bytes]]:
    """Pop one complete ``Content-Length`` response off ``buffer``."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buffer[:end].decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    if len(buffer) < end + 4 + length:
        return None
    body = bytes(buffer[end + 4 : end + 4 + length])
    del buffer[: end + 4 + length]
    return status, body


def _blocking_call(sock: socket.socket, method: str, path: str, body: bytes = b""):
    sock.setblocking(True)
    sock.settimeout(TIMEOUT_S)
    sock.sendall(_request(method, path, body))
    buffer = bytearray()
    while True:
        done = _take_response(buffer)
        if done is not None:
            return done
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk


class SseReader:
    """Incremental parser of one ``text/event-stream`` response."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = bytearray()
        self.head_seen = False
        self.frames: List[Tuple[float, str, dict]] = []
        self.closed = False

    def feed(self, now: float) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            self.closed = True
            return
        self.buffer += chunk
        if not self.head_seen:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return
            if not self.buffer.startswith(b"HTTP/1.1 200"):
                raise ConnectionError(f"subscribe refused: {bytes(self.buffer[:80])!r}")
            del self.buffer[: end + 4]
            self.head_seen = True
        while True:
            end = self.buffer.find(b"\n\n")
            if end < 0:
                return
            frame = self.buffer[:end].decode("utf-8")
            del self.buffer[: end + 2]
            event, data = "", "{}"
            for line in frame.split("\n"):
                if line.startswith("event: "):
                    event = line[7:]
                elif line.startswith("data: "):
                    data = line[6:]
            self.frames.append((now, event, json.loads(data)))


# ---------------------------------------------------------------------------
# server lifecycle
# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` child: launch, first answered request, SIGTERM."""

    def __init__(self, journal_dir: Path, workdir: Path, spans_out: Optional[Path]) -> None:
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
        serve_args = ["serve", str(journal_dir), "--port", "0", "--follow", str(FOLLOW_S)]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(spans_out), *serve_args]
        self.stderr = open(workdir / "server.stderr", "ab")
        started = clock()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.stderr, env=env, cwd=HERE.parent
        )
        try:
            line = self._announce_line()
            found = re.search(rb"http://[0-9.]+:(\d+)", line)
            if found is None:
                raise ConnectionError(f"unexpected announcement {line!r}")
            port = int(found.group(1))
            self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
            status, _ = _blocking_call(self.sock, "GET", "/stats")
            if status != 200:
                raise ConnectionError(f"GET /stats answered {status}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = clock() - started
        self.port = port

    def _announce_line(self) -> bytes:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=TIMEOUT_S):
                raise TimeoutError("repro serve did not announce its port")
        line = self.proc.stdout.readline()  # type: ignore[union-attr]
        if not line:
            raise ConnectionError("repro serve exited before announcing its port")
        return line

    def peak_rss_mb(self) -> float:
        return proc_status(str(self.proc.pid))["VmHWM"] / 1024

    def stop(self) -> bool:
        """SIGTERM and wait; True when the server drained and exited 0."""
        self.sock.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        finally:
            self.proc.stdout.close()  # type: ignore[union-attr]
            self.stderr.close()
        return code == 0

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()  # type: ignore[union-attr]
        self.stderr.close()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def _record(slide_id: int, rows: Dict[Tuple[str, ...], int]):
    from repro.history.journal import SlideRecord

    return SlideRecord(
        slide_id=slide_id,
        first_batch=max(0, slide_id - 9),
        last_batch=slide_id,
        num_columns=gen.SERVED["columns"],
        minsup=gen.SERVED["minsup"],
        patterns=tuple(rows.items()),
    )


def _build_journal(directory: Path, slides) -> None:
    from repro.history import DiskJournal

    with DiskJournal(directory) as journal:
        for slide_id, rows in slides[: gen.SERVED["base_slides"]]:
            journal.append(_record(slide_id, rows))


class QueryMix:
    """The seeded closed-loop query sequence, in whole rounds of ``ROUND``.

    Items and patterns are drawn from the last base slide, which is fixed
    by the seed; only the slide a "newest slide" query names follows the
    server (the newest slide the benchmark has seen indexed).
    """

    def __init__(self, seed: int, last_base: Dict[Tuple[str, ...], int]) -> None:
        self.rng = random.Random(f"queries:{seed}")
        counts: Dict[str, int] = {}
        for items in last_base:
            for item in items:
                counts[item] = counts.get(item, 0) + 1
        self.items = sorted(counts, key=lambda item: (-counts[item], item))
        self.item_weights = [1.0 / (rank + 1) for rank in range(len(self.items))]
        self.patterns = sorted(last_base)
        self.compound = [p for p in self.patterns if len(p) >= 2]
        self.supports = sorted(set(last_base.values()), reverse=True)
        self.pending: List[str] = []

    def next(self, newest: int) -> Tuple[str, dict, dict]:
        """(family, oracle params, JSON expression) of the next query."""
        if not self.pending:
            self.pending = [family for family, count in ROUND.items() for _ in range(count)]
            self.rng.shuffle(self.pending)
        family = self.pending.pop()
        rng, lo = self.rng, max(0, newest - RECENT + 1)
        recent = {"slides": [lo, newest]}
        if family == "topk_latest":
            params = {"k": 10, "lo": newest, "hi": newest}
            expr = {"top_k": {"k": 10, "where": {"slides": [newest, newest]}}}
        elif family == "topk_all":
            params = {"k": 10}
            expr = {"top_k": {"k": 10}}
        elif family == "select_contains":
            item = rng.choices(self.items, weights=self.item_weights)[0]
            params = {"item": item, "lo": lo, "hi": newest}
            expr = {"select": {"where": {"and": [{"contains": [item]}, recent]}}}
        elif family == "select_support":
            tau = rng.choice(self.supports[:40])
            params = {"tau": tau, "lo": newest, "hi": newest}
            latest = {"slides": [newest, newest]}
            expr = {"select": {"where": {"and": [{"support_gte": tau}, latest]}}}
        elif family == "contained_in":
            items = list(rng.choice(self.compound))
            params = {"items": items, "lo": lo, "hi": newest}
            expr = {"select": {"where": {"and": [{"contained_in": items}, recent]}}}
        else:
            items = list(rng.choice(self.patterns))
            params = {"items": items}
            expr = {"history": {"items": items}}
        return family, params, expr

    @property
    def round_complete(self) -> bool:
        return not self.pending


def _standing_item(last_base: Dict[Tuple[str, ...], int]) -> str:
    """A mid-popularity item: tens of matching rows, a frame on most slides."""
    counts: Dict[str, int] = {}
    for items in last_base:
        for item in items:
            counts[item] = counts.get(item, 0) + 1
    ranked = sorted(counts, key=lambda item: (-counts[item], item))
    return ranked[min(8, len(ranked) - 1)]


# ---------------------------------------------------------------------------
# one measured session against a running server
# ---------------------------------------------------------------------------
def _session(server: Server, journal_dir: Path, slides, seed: int, seconds: float) -> dict:
    from repro.history import open_journal

    base = gen.SERVED["base_slides"]
    held = slides[base:]
    last_base = slides[base - 1][1]
    item = _standing_item(last_base)
    expr = quote(json.dumps({"select": {"where": {"contains": [item]}}}))
    sse_sock = socket.create_connection(("127.0.0.1", server.port), timeout=TIMEOUT_S)
    sse_sock.sendall(_request("GET", f"/subscribe?expr={expr}&events=enter,exit,update"))
    sse = SseReader(sse_sock)
    sse_sock.setblocking(False)
    qsock = server.sock
    qsock.setblocking(False)
    sel = selectors.DefaultSelector()
    sel.register(qsock, selectors.EVENT_READ, "query")
    sel.register(sse_sock, selectors.EVENT_READ, "sse")
    deadline = clock() + TIMEOUT_S
    while not sse.frames:
        if clock() > deadline:
            raise TimeoutError("no SSE hello frame")
        for key, _ in sel.select(timeout=1.0):
            if key.data == "sse":
                sse.feed(clock())
    hello = sse.frames[0][2]
    if sse.frames[0][1] != "hello" or hello["last_slide"] != base - 1:
        raise ConnectionError(f"unexpected first SSE frame {sse.frames[0]}")

    mix = QueryMix(seed, last_base)
    writer = open_journal(journal_dir)
    answers: List[Tuple[str, dict, int, int, bytes]] = []
    latencies: List[Tuple[str, float]] = []
    appended_at: Dict[int, float] = {}
    failed = 0
    newest = base - 1
    frames_seen = 1
    buffer = bytearray()
    inflight: Optional[Tuple[float, str, dict, int]] = None
    # Every held-back slide is appended once, evenly spaced over the run.
    to_append = len(held)
    period = seconds / to_append
    started = clock()
    next_append = started + period
    appended = 0
    try:
        while True:
            now = clock()
            if inflight is None:
                if now - started >= seconds and mix.round_complete and appended == to_append:
                    break
                family, params, expression = mix.next(newest)
                qsock.sendall(_request("POST", "/query", json.dumps(expression).encode()))
                inflight = (clock(), family, params, newest)
            wait = next_append - clock() if appended < to_append else 1.0
            for key, _ in sel.select(timeout=max(0.0, wait)):
                arrived = clock()
                if key.data == "sse":
                    sse.feed(arrived)
                    for _, event, data in sse.frames[frames_seen:]:
                        if event == "notification":
                            newest = max(newest, data["slide"])
                    frames_seen = len(sse.frames)
                    continue
                chunk = qsock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("query connection closed by the server")
                buffer += chunk
                response = _take_response(buffer)
                if response is None:
                    continue
                sent, family, params, lowest = inflight  # type: ignore[misc]
                inflight = None
                status, body = response
                latencies.append((family, (arrived - sent) * 1e3))
                if status != 200:
                    failed += 1
                    continue
                answers.append((family, params, lowest, base - 1 + appended, body))
            if appended < to_append and clock() >= next_append:
                slide_id, rows = held[appended]
                writer.append(_record(slide_id, rows))
                appended_at[slide_id] = clock()
                appended += 1
                next_append += period
        elapsed = clock() - started
        last = base - 1 + appended
        deadline = clock() + TIMEOUT_S
        while True:
            status, body = _blocking_call(qsock, "GET", "/stats")
            if status == 200 and json.loads(body)["last_slide"] == last:
                break
            if clock() > deadline:
                raise TimeoutError("server did not index the appended slides")
            time.sleep(FOLLOW_S)
        journal_kb = writer.disk_size_bytes() / 1024
    finally:
        writer.close()
    peak = server.peak_rss_mb()
    exited_ok = server.stop()
    sse_sock.setblocking(True)
    sse_sock.settimeout(TIMEOUT_S)
    while not sse.closed:
        sse.feed(clock())
    sse_sock.close()
    sel.close()
    drained = bool(sse.frames) and sse.frames[-1][1] == "shutdown"
    notifications = [data for _, event, data in sse.frames if event == "notification"]
    first_frame: Dict[int, float] = {}
    for arrived, event, data in sse.frames:
        if event == "notification":
            first_frame.setdefault(data["slide"], arrived)
    return {
        "latencies": latencies,
        "answers": answers,
        "elapsed": elapsed,
        "queries": len(latencies),
        "failed": failed + (not exited_ok) + (not drained),
        "appended": appended,
        "notify_ms": [
            (first_frame[s] - appended_at[s]) * 1e3 for s in sorted(appended_at) if s in first_frame
        ],
        "notifications": notifications,
        "subscription": hello["subscription"],
        "item": item,
        "last": last,
        "peak_rss_mb": peak,
        "journal_kb": journal_kb,
    }


def _verify(session: dict, slides) -> int:
    """Run the answer and notification oracles; returns answers checked."""
    base = gen.SERVED["base_slides"]
    for family, params, lowest, highest, body in session["answers"]:
        oracles.check_answer(family, params, json.loads(body), slides, lowest, highest)
    expected = oracles.expected_notifications(
        slides, session["item"], base - 1, session["last"], session["subscription"]
    )
    oracles.check_notifications(session["notifications"], expected)
    return len(expected)


def _attempted(session: dict, expected_notifications: int) -> int:
    return session["queries"] + session["appended"] + expected_notifications + 2


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    slides = gen.served_slides(seed)
    digest = gen.served_digest(slides)
    base_dir = workdir / "base"
    _build_journal(base_dir, slides)

    def fresh(tag: str) -> Path:
        directory = workdir / tag
        shutil.copytree(base_dir, directory)
        return directory

    if not traced:
        # The probe starts only read the journal; the measured session then
        # appends to the same directory.
        setups = []
        failed = 0
        for _ in range(LAUNCHES - 1):
            probe = Server(base_dir, workdir, None)
            setups.append(probe.setup_s)
            failed += not probe.stop()
        journal_dir = base_dir
        server = Server(journal_dir, workdir, None)
        setups.append(server.setup_s)
        try:
            session = _session(server, journal_dir, slides, seed, seconds)
        except BaseException:
            server.kill()
            raise
        expected = _verify(session, slides)
        query_ms = [ms for _, ms in session["latencies"]]
        metrics = {
            "setup_s": p50(setups),
            "peak_rss_mb": session["peak_rss_mb"],
            "ops_per_s": session["queries"] / session["elapsed"],
            "op_p50_ms": p50(query_ms),
            "op_p90_ms": p90(query_ms),
            "slide_p50_ms": p50(session["notify_ms"]),
            "slide_p90_ms": p90(session["notify_ms"]),
            "journal_kb": session["journal_kb"],
        }
        return {
            "metrics": metrics,
            "attempted": _attempted(session, expected) + LAUNCHES - 1,
            "failed": failed + session["failed"],
            "digest": digest,
        }

    half = seconds / 2
    plain_dir = fresh("plain")
    server = Server(plain_dir, workdir, None)
    try:
        plain = _session(server, plain_dir, slides, seed, half)
    except BaseException:
        server.kill()
        raise
    spans_out = workdir / "spans-serve-mixed.jsonl"
    traced_dir = fresh("traced")
    server = Server(traced_dir, workdir, spans_out)
    try:
        session = _session(server, traced_dir, slides, seed, half)
    except BaseException:
        server.kill()
        raise
    expected = _verify(plain, slides) + _verify(session, slides)
    metrics = serve_layers(spans.load_spans(spans_out), session)
    metrics["trace.overhead_pct"] = (
        mean([ms for _, ms in session["latencies"]]) / mean([ms for _, ms in plain["latencies"]])
        - 1
    ) * 100
    return {
        "metrics": metrics,
        "attempted": _attempted(plain, 0) + _attempted(session, expected),
        "failed": plain["failed"] + session["failed"],
        "digest": digest,
    }


def serve_layers(recorded: List[spans.Span], session: dict) -> Dict[str, float]:
    """Per-layer figures from the server's spans and the client's view."""
    by_name: Dict[str, list] = {}
    for span in recorded:
        by_name.setdefault(span[2], []).append(span)

    def durations(name: str) -> List[float]:
        return [(s[4] - s[3]) * 1e3 for s in by_name.get(name, [])]

    def p50_or_0(values: List[float]) -> float:
        return p50(values) if values else 0.0

    queries = sorted(by_name.get("http.query", []), key=lambda s: s[3])
    client = [ms for _, ms in session["latencies"]]
    server_ms = [(s[4] - s[3]) * 1e3 for s in queries]
    if len(server_ms) != len(client):
        raise RuntimeError(
            f"{len(server_ms)} server query spans for {len(client)} client queries"
        )
    bodies = [json.loads(body) for _, _, _, _, body in session["answers"]]
    metrics = {
        "journal.open_s": sum(durations("journal.open")) / 1e3,
        "journal.decode_ms": mean(durations("journal.decode")),
        "shards.build_s": max(durations("shards.build")) / 1e3,
        "shards.extend_ms": p50_or_0(durations("shards.extend")),
        "warm.poll_ms": p50_or_0(
            [(s[4] - s[3]) * 1e3 for s in by_name.get("warm.poll", []) if s[5] > 0]
        ),
        "standing.advance_ms": p50_or_0(durations("standing.advance")),
        "standing.notifications": mean([s[5] for s in by_name.get("standing.advance", [])]),
        "algebra.parse_ms": p50_or_0(durations("algebra.parse")),
        "algebra.scanned": mean([body["explain"]["scanned"] for body in bodies]),
        "http.serialise_ms": p50_or_0(durations("http.serialise")),
        "http.response_kb": mean([len(body) for *_, body in session["answers"]]) / 1024,
        "http.overhead_ms": p50([c - s for c, s in zip(client, server_ms)]),
        "trace.coverage": sum(server_ms) / sum(client),
    }
    for family in ROUND:
        metrics[f"algebra.evaluate_ms.{family}"] = p50_or_0(durations(f"algebra.evaluate.{family}"))
    return metrics
