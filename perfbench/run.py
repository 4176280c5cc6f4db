"""docvault benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The service runs as its own
process (``perfbench/server.py``) on 127.0.0.1 over the checkout's
``src/``; this process builds the store, generates the load from the seed
(at most 2 threads, each with one keep-alive ``http.client`` connection,
closed loop) and checks every reply.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload twice for half the time each,
untraced then traced, and prints the per-layer metrics with the tracing
overhead.  The line before the result is a report with the per-route
numbers, the run conditions and the per-route span accounting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("small-mix", "bulk-transfer", "large-catalog", "audit")
# every end-to-end metric an untraced run prints, with its unit
UNITS = {"setup_s": "s", "req_per_s": "req/s", "p50_ms": "ms", "p90_ms": "ms"}
# The load runs in SEGMENTS parts.  After each part the service process
# times further service starts: at least one, more while they add up to
# less than SETUP_BUDGET_S (server.more_samples).  setup_s is their median.
SEGMENTS, SETUP_BUDGET_S = 5, 0.4
MIB = 1 << 20


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, kind, *_ = line.split()
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def conditions(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "filesystem": filesystem_type(ROOT),
        "transport": "TCP over loopback (127.0.0.1), service in its own process",
        "flush_policy": "fsync per journal append and per blob, as the program does",
        "client": "1 process, closed loop, at most 2 threads with one keep-alive connection each",
    }


class Server:
    """The service process, driven over its stdin/stdout (see server.py)."""

    def __init__(self, spec: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"service process exited with {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        return self._read()

    def close(self) -> int:
        """Wait for the process to end (end of stdin stops it); its exit code."""
        self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


class StaticServer:
    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "static_server.py"), str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("static server did not start")
        self.port = int(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def phase(wl, work: Path, seconds: float, segments: int, measure: bool, traced: bool,
          static_port: int | None, corrupt_every: int = 0) -> dict:
    """Start the service on the store, run the load, stop; return what was seen.

    The load runs in ``segments`` equal parts.  When ``measure`` is set,
    service starts (setup_s) are timed after each part, so that their
    samples spread over the whole run, as the request samples do, rather
    than over a few seconds of it.  One fsck checks the store at the end.
    """
    import tracing
    from client import Tally

    spec = dict(wl.store.spec, corrupt_every=corrupt_every,
                trace_out=str(work / "trace.json") if traced else "")
    server = Server(spec)
    client_tracer = None
    tally, elapsed, wall, cpu = Tally(), 0.0, 0.0, 0.0
    setup_s = list(server.hello["setup_s"])
    try:
        server.send("mark")
        port = static_port or server.hello["port"]
        if traced and static_port:
            import requests

            plain_get = requests.Session.get
            client_tracer = tracing.Tracer()
            tracing.install_auditor_spans(client_tracer)
        try:
            for k in range(segments):
                cpu0, t0 = time.process_time(), time.perf_counter()
                timed_from = t0 + min(1.0, 0.1 * seconds) if k == 0 else t0
                part = wl.run(port, t0 + seconds / segments, timed_from)
                wall, cpu = wall + time.perf_counter() - t0, cpu + time.process_time() - cpu0
                if part.last_end:
                    elapsed += part.last_end - timed_from
                tally.merge(part)
                if measure:
                    setup_s += server.send(f"setup 1 {SETUP_BUDGET_S}")["setup_s"]
        finally:
            if client_tracer:
                requests.Session.get = plain_get
        fsck = server.send("fsck")
        tally.check(fsck["issues"] == 0, f"fsck found {fsck['issues']} issues")
        bye = server.send("stop")
    finally:
        exit_code = server.close()
    samples = [ms for route in tally.latency_ms.values() for ms in route]
    tally.check(exit_code == 0 and len(samples) > 0,
                f"service exit {exit_code}, {len(samples)} samples")
    return {
        "tally": tally,
        "samples": samples,
        "elapsed": elapsed,
        "client_cpu_share": cpu / wall,
        "hello": server.hello,
        "setup_s": setup_s,
        "fsck_s": fsck["fsck_s"],
        "bye": bye,
        "trace": json.loads((work / "trace.json").read_text()) if traced else None,
        "client_trace": client_tracer.as_dict() if client_tracer else None,
    }


def latency_metrics(ph: dict) -> dict:
    from client import percentile

    return {
        "req_per_s": len(ph["samples"]) / ph["elapsed"],
        "p50_ms": statistics.median(ph["samples"]),
        "p90_ms": percentile(ph["samples"], 90),
    }


def end_to_end(ph: dict) -> dict:
    m = latency_metrics(ph)
    m["setup_s"] = statistics.median(ph["setup_s"])
    return {k: (m[k], unit) for k, unit in UNITS.items()}


def route_report(ph: dict) -> dict:
    from client import latency_summary

    t = ph["tally"]
    report = {route: latency_summary(ms) for route, ms in sorted(t.latency_ms.items())}
    if t.upload_s:
        report["upload_mib_s"] = t.bytes_up / MIB / t.upload_s
    if t.download_s:
        report["download_mib_s"] = t.bytes_down / MIB / t.download_s
    return report


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, and the overhead against the plain one."""
    import layers

    trace = layers.Trace(traced["trace"])
    t = traced["tally"]
    m = layers.server_metrics(
        trace, t.latency_ms, t.sent_bytes, traced["bye"]["write_bytes"],
        traced["hello"]["journal_bytes"], traced["hello"]["live_records"])
    client_trace = traced["client_trace"] or {"spans": [], "counts": []}
    m.update(layers.auditor_metrics(layers.Trace(client_trace), t.audits))
    ops = plain["tally"].requests
    m["client.cpu_share"] = plain["client_cpu_share"]
    m["server.cpu_ms_per_op"] = plain["bye"]["cpu_s"] * 1000 / ops if ops else 0.0
    e_plain, e_traced = latency_metrics(plain), latency_metrics(traced)
    for name in ("req_per_s", "p50_ms"):
        m[f"trace.overhead.{name}"] = e_traced[name] / e_plain[name]
    detail = {
        "overhead": {"untraced": e_plain, "traced": e_traced},
        "spans_per_route": trace.per_route(),
    }
    return {k: (m[k], unit) for k, unit in layers.UNITS.items()}, detail


def run(workload: str, seed: int, seconds: float, trace: bool, corrupt_every: int = 0):
    """Build the workload's store, run it, and return (result, report)."""
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    static = None
    try:
        wl = WORKLOADS[workload](work, seed)
        if workload == "audit":
            static = StaticServer(wl.webroot)
        port = static.port if static else None
        report = {"workload": workload, "conditions": conditions(seed)}
        if not trace:
            ph = phase(wl, work, seconds, SEGMENTS, True, False, port, corrupt_every)
            metrics = end_to_end(ph)
            phases = [ph]
            report["setup_s_samples"] = ph["setup_s"]
            report["fsck_s"] = ph["fsck_s"]
        else:
            plain = phase(wl, work, seconds / 2, 1, False, False, port, corrupt_every)
            traced = phase(wl, work, seconds / 2, 1, False, True, port, corrupt_every)
            metrics, report["trace"] = per_layer(plain, traced)
            phases = [plain, traced]
    finally:
        if static:
            static.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(p["tally"].attempted for p in phases)
    failed = sum(p["tally"].failed for p in phases)
    report["routes"] = route_report(phases[0])
    report["client_cpu_share"] = phases[0]["client_cpu_share"]
    report["error_rate"] = {"failed": failed, "attempted": attempted, "value": failed / attempted}
    report["errors"] = [e for p in phases for e in p["tally"].errors][:5]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "docvault" / "__init__.py").is_file():
        print(f"no docvault sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
