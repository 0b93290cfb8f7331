"""Fixed pure-Python job that measures how fast the host runs right now.

The benchmark's hosts share their cores with other machines, and their speed
drifts by a third or more between minutes of the same hour. A run of the
benchmark interleaves this job with the simulator and divides each simulator
time by the job's time next to it, so that a slower host does not read as a
slower simulator. The job imports nothing from the simulator: no change to
``src/`` can make it faster or slower.

Its mix follows what the simulator spends its time on: scans of object lists
and dict values comparing attributes (sessions, key pools), a heap-based
shortest path over dicts (QuSeC), and small records encoded as JSON lines
and hashed (trace encoding).
"""

from __future__ import annotations

import hashlib
import heapq
import json

# Host seconds that one reference_work() call is scaled to. Times reported
# "at reference speed" are host times multiplied by
# REFERENCE_SECONDS / (measured seconds of one reference_work() call).
REFERENCE_SECONDS = 0.030


class _Item:
    __slots__ = ("state", "src", "dst")

    def __init__(self, state: int, src: str, dst: str) -> None:
        self.state = state
        self.src = src
        self.dst = dst


def _scan(n: int = 400, lookups: int = 450) -> int:
    items = [_Item(i % 3, f"A{i % 37}", f"A{i % 41}") for i in range(n)]
    by_id = {f"K{i}": item for i, item in enumerate(items)}
    found = 0
    for q in range(lookups):
        src, dst = f"A{(q * 7) % 41}", f"A{(q * 5) % 37}"
        for item in reversed(items):
            if item.state == 2:
                continue
            if item.src == dst and item.dst == src:
                found += 1
                break
        for item in by_id.values():
            if item.state == q % 3:
                found += 1
                break
    return found


def _grid_paths(k: int = 12, sources: int = 30) -> list[dict]:
    adj: dict[str, list[str]] = {}
    for r in range(k):
        for c in range(k):
            adj[f"N{r * k + c}"] = [
                f"N{nr * k + nc}"
                for nr, nc in ((r, c + 1), (r, c - 1), (r + 1, c), (r - 1, c))
                if 0 <= nr < k and 0 <= nc < k
            ]
    nodes = list(adj)
    records = []
    for s in nodes[:: len(nodes) // sources]:
        dist = {s: 0}
        prev: dict[str, str] = {}
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v in adj[u]:
                if d + 1 < dist.get(v, 1 << 30):
                    dist[v] = d + 1
                    prev[v] = u
                    heapq.heappush(heap, (d + 1, v))
        far = max(nodes, key=lambda n: (dist[n], n))
        hops = [far]
        while hops[-1] != s:
            hops.append(prev[hops[-1]])
        records.append({"src": s, "dst": far, "hops": len(hops), "path": hops[::-1]})
    return records


def _encode(records: list[dict], copies: int = 30) -> str:
    digest = hashlib.sha256()
    for i in range(copies):
        for at, record in enumerate(records):
            line = json.dumps({"at": at + i, **record}, sort_keys=True, separators=(",", ":"))
            digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def reference_work() -> str:
    """Run the fixed job once; its result is the same on every call."""
    return f"{_scan()}:{_encode(_grid_paths())}"
