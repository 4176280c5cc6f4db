"""The service process of a benchmark run: a VaultService on a prebuilt store.

Started by ``run.py`` as ``python3 perfbench/server.py SPEC_JSON``.  It
starts the service on the store, timing the start from the beginning of
``VaultService`` construction to a listening socket (layout check, journal
replay, index build), and prints one JSON line with its port and that
time.  Then it answers commands, one per line on stdin, each with one JSON
line on stdout:

* ``mark``      - remember CPU time and bytes written from here on;
* ``setup N S`` - start and close another service on the store at least N
  times, and more while the starts add up to less than S seconds;
* ``fsck``      - run ``check_consistency`` with checksums once;
* ``stop``      - stop serving, write the trace (if any) and exit.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from docvault import delivery, metadata  # noqa: E402
from docvault.config import ServiceConfig  # noqa: E402
from docvault.naming import SecretKey  # noqa: E402
from docvault.placement import PlacementPolicy  # noqa: E402
from docvault.service import VaultService  # noqa: E402


def write_bytes() -> int:
    """Bytes this process caused to be sent to storage (0 where unreadable)."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("write_bytes:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def corrupt_downloads(every: int) -> None:
    """Flip one byte in every ``every``-th download (the benchmark's own test)."""
    chunks = delivery.StreamResult.chunks
    served = [0]

    def corrupted(result):
        served[0] += 1
        first = served[0] % every == 0
        for chunk in chunks(result):
            if first:
                chunk = bytes([chunk[0] ^ 0xFF]) + chunk[1:]
                first = False
            yield chunk

    delivery.StreamResult.chunks = corrupted


def more_samples(times: list[float], least: int, budget_s: float) -> bool:
    """Take at least ``least`` samples, and more (up to 8 times as many)
    while they add up to less than ``budget_s``, so short ones get a median
    over more of them."""
    return len(times) < least or (sum(times) < budget_s and len(times) < 8 * least)


def start(config: ServiceConfig, key: SecretKey, times: list[float]) -> VaultService:
    """Construct the service on the store; time it up to its listening socket."""
    gc.collect()  # each start begins on a collected heap
    t0 = time.perf_counter()
    svc = VaultService(config, key)
    times.append(time.perf_counter() - t0)
    return svc


def discard(svc: VaultService) -> None:
    # stop() waits for a serve_forever loop, and this one never ran
    svc._server.server_close()
    svc.journal.close()


def reply(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = tracing.Tracer() if spec["trace_out"] else None
    if tracer:
        tracing.install_server_spans(tracer)
    if spec.get("corrupt_every"):
        corrupt_downloads(spec["corrupt_every"])

    config = ServiceConfig(
        bind_host="127.0.0.1",
        bind_port=0,
        webroot=spec["webroot"],
        vault_dir=spec["vault_dir"],
        policy=PlacementPolicy(spec["policy"]),
        key_file=None,
        key_env=None,
        store_path=spec["store"],
        max_upload_bytes=spec["max_upload_bytes"],
    )
    key = SecretKey(bytes.fromhex(spec["key_hex"]))

    setup_s = []
    svc = start(config, key, setup_s)
    svc.start()
    live = len(svc.core.records.list_all(page_size=1 << 30)[0])
    reply(
        {
            "port": svc.address[1],
            "setup_s": setup_s,
            "journal_bytes": os.path.getsize(config.store_path),
            "live_records": live,
        }
    )

    cpu0, wb0 = time.process_time(), write_bytes()
    for line in sys.stdin:
        cmd, *args = line.split()
        if cmd == "mark":
            cpu0, wb0 = time.process_time(), write_bytes()
            reply({"ok": True})
        elif cmd == "setup":
            times = []
            while more_samples(times, int(args[0]), float(args[1])):
                discard(start(config, key, times))
            reply({"setup_s": times})
        elif cmd == "fsck":
            gc.collect()
            t0 = time.perf_counter()
            found = metadata.check_consistency(svc.core.records, config.vault_dir)
            reply({"fsck_s": time.perf_counter() - t0, "issues": len(found)})
        elif cmd == "stop":
            break
    cpu, written = time.process_time() - cpu0, write_bytes() - wb0
    svc.stop()
    if tracer:
        tracer.dump(spec["trace_out"])
    reply({"cpu_s": cpu, "write_bytes": written})
    return 0


if __name__ == "__main__":
    sys.exit(main())
