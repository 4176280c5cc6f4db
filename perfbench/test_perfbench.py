"""The benchmark's own checks: its metric list, and that it catches bad replies.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from client import Conn, Doc, Reply, check_download  # noqa: E402


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_download_check_compares_every_byte():
    pool = memoryview(bytes(range(256)) * 4)
    doc = Doc("d1", "alice", "a.pdf", 1, 300, 100, "application/pdf")
    headers = [
        ("Content-Type", "application/pdf"),
        ("Content-Length", "300"),
        ("Accept-Ranges", "bytes"),
        ("Content-Disposition", 'attachment; filename="a.pdf"'),
    ]
    conn = Conn(1, "token")
    conn.buf[:300] = pool[100:400]
    reply = Reply(200, headers, 300, 0.0)
    assert check_download(conn, reply, doc, pool)
    conn.buf[299] ^= 1
    assert not check_download(conn, reply, doc, pool)


def test_corrupted_download_counts_as_failed():
    result, report = run.run("small-mix", seed=3, seconds=3, trace=False, corrupt_every=5)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["error_rate"]["failed"] == result["failed"]
    assert any("download" in e for e in report["errors"])


def test_clean_run_is_correct():
    result, report = run.run("small-mix", seed=3, seconds=3, trace=False)
    assert result["correct"], report["errors"]
    assert set(result["metrics"]) == set(run.UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
