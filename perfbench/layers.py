"""Per-layer metrics from the spans of a traced run.

A span's self time is its duration minus the time of its child spans; the
self times of all spans of one request add up to its root span.  Each
metric below names the end-to-end metric it should move (see README.md).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ROUTES = ("download", "list", "admin_list", "upload", "delete")
ROOT = "service.handler"

# every per-layer metric a traced run prints, with its unit
UNITS = {
    **{f"service.handler_self_ms.{r}": "ms" for r in ROUTES},
    **{f"net.gap_ms.{r}": "ms" for r in ROUTES},
    "service.upload_self_ms": "ms",
    "access.authenticate_us": "us",
    "access.authenticate.count_per_request": "count",
    "access.authorize.denied_share": "ratio",
    "metadata.get_by_id.count_per_download": "count",
    "metadata.list_ms": "ms",
    "metadata.rows_examined_per_row_returned": "ratio",
    "metadata.from_dict_per_row_returned": "ratio",
    "metadata.check_consistency_s": "s",
    "journal.get_us": "us",
    "journal.put_ms": "ms",
    "journal.append.count_per_write": "count",
    "journal.replay_s": "s",
    "journal.bytes_per_live_record": "B",
    "storage.fsync.count_per_upload": "count",
    "storage.fsync_ms": "ms",
    "storage.bytes_written_per_user_byte": "ratio",
    "naming.derive.count_per_upload": "count",
    "naming.derive_us": "us",
    "delivery.prepare_us": "us",
    "delivery.read_ms": "ms",
    "delivery.chunk.count_per_download": "count",
    "placement.materialize_ms": "ms",
    "auditor.probe.count_per_audit": "count",
    "auditor.probe_ms": "ms",
    "auditor.bytes_read_per_probe.hit": "B",
    "auditor.bytes_read_per_probe.miss": "B",
    "client.cpu_share": "ratio",
    "server.cpu_ms_per_op": "ms",
    "trace.overhead.req_per_s": "ratio",
    "trace.overhead.p50_ms": "ratio",
}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Trace:
    def __init__(self, dump: dict):
        self.spans = [tuple(s) for s in dump["spans"]]
        self.counts = defaultdict(int)
        for req, name, n in dump["counts"]:
            self.counts[(req, name)] += n
        child = defaultdict(float)
        for sid, parent, _req, _name, t0, t1, _tag in self.spans:
            if parent:
                child[parent] += t1 - t0
        self.self_s = {s[0]: s[5] - s[4] - child[s[0]] for s in self.spans}
        self.route = {s[2]: s[6] for s in self.spans if s[3] == ROOT}
        for s in self.spans:
            if s[3] == "metadata.list_all" and s[2] in self.route:
                self.route[s[2]] = "admin_list"
        self.requests = defaultdict(int)
        for r in self.route.values():
            self.requests[r] += 1

    def durations(self, name: str, routes=None) -> list[float]:
        return [
            s[5] - s[4] for s in self.spans
            if s[3] == name and (routes is None or self.route.get(s[2]) in routes)
        ]

    def in_requests(self, name: str, routes) -> int:
        return len(self.durations(name, routes))

    def count(self, name: str, routes=None) -> int:
        return sum(n for (req, key), n in self.counts.items()
                   if key == name and (routes is None or self.route.get(req) in routes))

    def per_route(self) -> dict:
        """Root span, summed self times and self time per layer, mean ms per request."""
        table = {}
        for route in ROUTES:
            reqs = {req for req, r in self.route.items() if r == route}
            if not reqs:
                continue
            root = sum(s[5] - s[4] for s in self.spans if s[3] == ROOT and s[2] in reqs)
            layers = defaultdict(float)
            for s in self.spans:
                if s[2] in reqs:
                    layers[s[3].split(".")[0]] += self.self_s[s[0]]
            n = len(reqs)
            table[route] = {
                "requests": n,
                "root_ms": root / n * 1000,
                "self_sum_ms": sum(layers.values()) / n * 1000,
                "self_ms_by_layer": {k: v / n * 1000 for k, v in sorted(layers.items())},
            }
        return table


def server_metrics(trace: Trace, client_ms: dict, user_bytes: int, write_bytes: int,
                   journal_bytes: int, live_records: int) -> dict:
    m = {}
    for route in ROUTES:
        roots = [s for s in trace.spans if s[3] == ROOT and trace.route[s[2]] == route]
        m[f"service.handler_self_ms.{route}"] = _mean(trace.self_s[s[0]] for s in roots) * 1000
        gap = 0.0
        if roots and client_ms.get(route):
            gap = statistics.median(client_ms[route]) - statistics.median(
                s[5] - s[4] for s in roots) * 1000
        m[f"net.gap_ms.{route}"] = gap
    m["service.upload_self_ms"] = _mean(
        trace.self_s[s[0]] for s in trace.spans if s[3] == "service.upload") * 1000

    all_routes = set(ROUTES)
    m["access.authenticate_us"] = _mean(trace.durations("access.authenticate", all_routes)) * 1e6
    m["access.authenticate.count_per_request"] = _ratio(
        trace.in_requests("access.authenticate", all_routes), len(trace.route))
    m["access.authorize.denied_share"] = _ratio(
        trace.count("access.authorize.denied", all_routes),
        trace.in_requests("access.authorize", all_routes))

    downloads = trace.requests["download"]
    lists = {"list", "admin_list"}
    m["metadata.get_by_id.count_per_download"] = _ratio(
        trace.in_requests("metadata.get_by_id", {"download"}), downloads)
    m["metadata.list_ms"] = _mean(
        trace.durations("metadata.list", lists) + trace.durations("metadata.list_all", lists)) * 1000
    rows = trace.count("metadata.rows_returned", lists)
    m["metadata.rows_examined_per_row_returned"] = _ratio(
        trace.count("journal.items.entries", lists), rows)
    m["metadata.from_dict_per_row_returned"] = _ratio(trace.count("metadata.from_dict", lists), rows)
    m["metadata.check_consistency_s"] = _mean(trace.durations("metadata.check_consistency"))

    m["journal.get_us"] = _mean(trace.durations("journal.get", all_routes)) * 1e6
    m["journal.put_ms"] = _mean(trace.durations("journal.put", all_routes)) * 1000
    writes = {"upload", "delete"}
    m["journal.append.count_per_write"] = _ratio(
        trace.in_requests("journal.put", writes) + trace.in_requests("journal.delete", writes),
        trace.requests["upload"] + trace.requests["delete"])
    m["journal.replay_s"] = _mean(trace.durations("journal.replay"))
    m["journal.bytes_per_live_record"] = _ratio(journal_bytes, live_records)

    uploads = trace.requests["upload"]
    m["storage.fsync.count_per_upload"] = _ratio(trace.in_requests("storage.fsync", {"upload"}), uploads)
    m["storage.fsync_ms"] = _mean(trace.durations("storage.fsync", all_routes)) * 1000
    m["storage.bytes_written_per_user_byte"] = _ratio(write_bytes, user_bytes)

    m["naming.derive.count_per_upload"] = _ratio(trace.in_requests("naming.derive", {"upload"}), uploads)
    m["naming.derive_us"] = _mean(trace.durations("naming.derive", all_routes)) * 1e6

    streamed = len({s[2] for s in trace.spans if s[3] == "delivery.read"
                    and trace.route.get(s[2]) == "download"})
    reads = trace.durations("delivery.read", {"download"})
    m["delivery.prepare_us"] = _mean(trace.durations("delivery.prepare", all_routes)) * 1e6
    m["delivery.read_ms"] = _ratio(sum(reads) * 1000, streamed)
    m["delivery.chunk.count_per_download"] = _ratio(len(reads), streamed)
    m["placement.materialize_ms"] = _mean(trace.durations("placement.materialize")) * 1000
    return m


def auditor_metrics(trace: Trace, audits: int) -> dict:
    probes = trace.durations("auditor.probe")
    hits = trace.count("auditor.hit")
    misses = trace.count("auditor.miss")
    return {
        "auditor.probe.count_per_audit": _ratio(len(probes), audits),
        "auditor.probe_ms": _mean(probes) * 1000,
        "auditor.bytes_read_per_probe.hit": _ratio(trace.count("auditor.bytes.hit"), hits),
        "auditor.bytes_read_per_probe.miss": _ratio(trace.count("auditor.bytes.miss"), misses),
    }
