import socket
import threading
import time

import pytest

from docvault.auditor import (
    _LISTING_CAP,
    Finding,
    ProbeTarget,
    Rule,
    Severity,
    Verdict,
    Auditor,
    looks_like_listing,
    render_text_report,
    run_audit,
)
from docvault.placement import emit_deny_config, emit_index_placeholder

from conftest import StaticFixtureServer


class _HeldReplyServer:
    """Answers each connection with fixed bytes, then holds it open unread.

    Stands for a server whose body is huge or stalled: a probe that waits
    for the rest of the body waits out its timeout.
    """

    def __init__(self, reply: bytes):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.02)
        self.reply = reply
        self.connections: list[socket.socket] = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.listener.getsockname()[1]}/"

    def _serve(self):
        while not self.done.is_set():
            try:
                conn, _ = self.listener.accept()
            except OSError:
                continue
            self.connections.append(conn)
            conn.settimeout(5)
            try:
                conn.recv(65536)
                conn.sendall(self.reply)
            except OSError:
                pass  # the probe closed early, as it may

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.done.set()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        for conn in self.connections:
            conn.close()
        self.listener.close()


@pytest.fixture
def vulnerable_server(tmp_path):
    """Auto-index on, sequential names planted, no placeholder."""
    root = tmp_path / "exposed"
    root.mkdir()
    for i in (1, 2, 3):
        (root / f"{i}.pdf").write_bytes(b"%PDF-1.4 leaked document " + str(i).encode())
    server = StaticFixtureServer(root)
    server.start()
    yield server
    server.stop()


@pytest.fixture
def hardened_server(tmp_path):
    """Deny config honored, placeholder present, opaque names only."""
    root = tmp_path / "site"
    docs = root / "docs"
    docs.mkdir(parents=True)
    (docs / ".htaccess").write_bytes(emit_deny_config())
    (docs / "index.html").write_bytes(emit_index_placeholder())
    (docs / ("a1" * 16 + ".pdf")).write_bytes(b"%PDF-1.4 protected")
    server = StaticFixtureServer(root, deny_dirs=("docs",))
    server.start()
    yield server
    server.stop()


class TestListingProbe:
    def test_autoindex_detected(self, vulnerable_server):
        target = ProbeTarget(vulnerable_server.base_url, max_sequential=1)
        verdict, findings, listed = Auditor(target).probe_listing()
        assert verdict is Verdict.FAIL
        assert findings and findings[0].rule is Rule.R2_LISTING_OR_INDEX
        assert findings[0].url == vulnerable_server.base_url
        assert listed == ["1.pdf", "2.pdf", "3.pdf"]

    def test_placeholder_passes(self, tmp_path):
        root = tmp_path / "site"
        root.mkdir()
        (root / "index.html").write_bytes(emit_index_placeholder("forbidden"))
        (root / "1.pdf").write_bytes(b"%PDF")
        server = StaticFixtureServer(root)
        server.start()
        try:
            verdict, findings, _ = Auditor(ProbeTarget(server.base_url)).probe_listing()
        finally:
            server.stop()
        assert verdict is Verdict.PASS
        assert findings == []

    def test_denied_dir_passes(self, hardened_server):
        target = ProbeTarget(hardened_server.base_url + "docs/")
        verdict, findings, _ = Auditor(target).probe_listing()
        assert verdict is Verdict.PASS

    def test_unreachable_is_indeterminate(self):
        target = ProbeTarget("http://127.0.0.1:1/", timeout=0.2)
        verdict, findings, _ = Auditor(target).probe_listing()
        assert verdict is Verdict.INDETERMINATE

    def test_listing_read_stops_at_cap(self):
        # The page claims 1 GiB and stalls after its first MiB and a bit:
        # the children in that MiB are listed, later ones are never read.
        head = b'<html><body><a href="a.pdf">a</a> <a href="b.pdf">b</a>'
        page = head + b" " * (_LISTING_CAP - len(head)) + b'<a href="c.pdf">c</a>'
        reply = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"
                 b"Content-Length: 1073741824\r\n\r\n" + page)
        with _HeldReplyServer(reply) as server:
            target = ProbeTarget(server.base_url, timeout=0.5)
            start = time.monotonic()
            verdict, findings, listed = Auditor(target).probe_listing()
            elapsed = time.monotonic() - start
        assert verdict is Verdict.FAIL
        assert listed == ["a.pdf", "b.pdf"]
        assert elapsed < 0.25

    def test_unknown_charset_read_as_utf8(self):
        page = b'<a href="a.pdf">a</a> <a href="b.pdf">b</a>'
        reply = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=no-such-charset\r\n"
                 b"Content-Length: %d\r\n\r\n" % len(page) + page)
        with _HeldReplyServer(reply) as server:
            verdict, _, listed = Auditor(ProbeTarget(server.base_url, timeout=0.5)).probe_listing()
        assert verdict is Verdict.FAIL
        assert listed == ["a.pdf", "b.pdf"]


class TestListingHeuristic:
    def test_index_of_title(self):
        assert looks_like_listing("http://x/", "<title>Index of /docs</title>")

    def test_two_child_links(self):
        body = '<a href="a.pdf">a</a> <a href="b.pdf">b</a>'
        assert looks_like_listing("http://x/d/", body)

    def test_single_link_not_listing(self):
        assert not looks_like_listing("http://x/d/", '<a href="a.pdf">a</a>')

    def test_offsite_links_ignored(self):
        body = '<a href="http://other/a.pdf">a</a> <a href="http://other/b.pdf">b</a>'
        assert not looks_like_listing("http://x/d/", body)

    def test_empty_placeholder(self):
        assert not looks_like_listing(
            "http://x/d/", emit_index_placeholder().decode()
        )


class TestSequentialProbe:
    def test_finds_exactly_planted(self, vulnerable_server):
        target = ProbeTarget(vulnerable_server.base_url, max_sequential=100)
        verdict, findings = Auditor(target).probe_sequential_names()
        assert verdict is Verdict.FAIL
        assert len(findings) == 3
        assert {f.url.rsplit("/", 1)[-1] for f in findings} == {"1.pdf", "2.pdf", "3.pdf"}
        assert all(f.severity is Severity.CRITICAL for f in findings)

    def test_hardened_no_findings(self, hardened_server):
        target = ProbeTarget(hardened_server.base_url + "docs/", max_sequential=100)
        verdict, findings = Auditor(target).probe_sequential_names()
        assert verdict is Verdict.PASS
        assert findings == []

    def test_early_stop_does_not_skip_late_hit(self, tmp_path):
        root = tmp_path / "late"
        root.mkdir()
        (root / "5.pdf").write_bytes(b"%PDF late file")
        server = StaticFixtureServer(root)
        server.start()
        try:
            target = ProbeTarget(server.base_url, max_sequential=100, miss_run=10)
            auditor = Auditor(target)
            verdict, findings = auditor.probe_sequential_names()
        finally:
            server.stop()
        assert [f.url.rsplit("/", 1)[-1] for f in findings] == ["5.pdf"]
        # early stop kicks in only after 10 consecutive misses past the hit
        assert auditor.probes_sent == 15

    def test_hit_never_waits_for_its_body(self):
        reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/pdf\r\n"
                 b"Content-Length: 1073741824\r\n\r\n")
        with _HeldReplyServer(reply) as server:
            target = ProbeTarget(server.base_url, timeout=0.5, max_sequential=1)
            start = time.monotonic()
            verdict, findings = Auditor(target).probe_sequential_names()
            elapsed = time.monotonic() - start
            assert len(server.connections) == 1
        assert verdict is Verdict.FAIL
        assert [f.detail for f in findings] == ["sequential name retrievable (1073741824 bytes)"]
        assert elapsed < 0.25

    def test_hit_without_length_says_so(self):
        reply = b"HTTP/1.0 200 OK\r\nContent-Type: application/pdf\r\n\r\n%PDF-1.4"
        with _HeldReplyServer(reply) as server:
            target = ProbeTarget(server.base_url, timeout=0.5, max_sequential=1)
            verdict, findings = Auditor(target).probe_sequential_names()
        assert verdict is Verdict.FAIL
        assert [f.detail for f in findings] == ["sequential name retrievable (size not stated)"]

    def test_probe_budget(self, tmp_path):
        root = tmp_path / "empty"
        root.mkdir()
        server = StaticFixtureServer(root)
        server.start()
        try:
            target = ProbeTarget(
                server.base_url, extensions=("pdf", "doc"), max_sequential=7, miss_run=100
            )
            auditor = Auditor(target)
            auditor.probe_sequential_names()
        finally:
            server.stop()
        assert auditor.probes_sent <= 2 * 7


class TestDirectAccessProbe:
    def test_open_fixture_critical(self, vulnerable_server):
        target = ProbeTarget(vulnerable_server.base_url)
        verdict, findings = Auditor(target).probe_direct_access(["1.pdf"])
        assert verdict is Verdict.FAIL
        rules = {f.rule for f in findings}
        assert rules == {Rule.R1_DIRECT_ACCESS, Rule.R4_STATIC_SERVING}

    def test_denied_dir_no_finding(self, hardened_server):
        target = ProbeTarget(hardened_server.base_url + "docs/")
        verdict, findings = Auditor(target).probe_direct_access(["a1" * 16 + ".pdf"])
        assert verdict is Verdict.PASS
        assert findings == []

    def test_empty_names(self, vulnerable_server):
        target = ProbeTarget(vulnerable_server.base_url)
        verdict, findings = Auditor(target).probe_direct_access([])
        assert findings == []


class TestRunAudit:
    def test_vulnerable_fixture(self, vulnerable_server):
        report = run_audit(ProbeTarget(vulnerable_server.base_url, max_sequential=100))
        assert report.verdicts[Rule.R2_LISTING_OR_INDEX] is Verdict.FAIL
        assert report.verdicts[Rule.R3_GUESSABLE_NAMES] is Verdict.FAIL
        assert report.verdicts[Rule.R1_DIRECT_ACCESS] is Verdict.FAIL
        assert report.verdicts[Rule.R4_STATIC_SERVING] is Verdict.FAIL
        assert len(report.findings_for(Rule.R3_GUESSABLE_NAMES)) == 3
        assert not report.passed

    def test_hardened_fixture(self, hardened_server):
        report = run_audit(
            ProbeTarget(hardened_server.base_url + "docs/", max_sequential=100),
            known_names=["a1" * 16 + ".pdf"],
        )
        assert report.passed
        assert report.findings == []

    def test_listed_names_probed_for_direct_access(self, tmp_path):
        # Opaque names defeat the sequential probe, but a listing shows them.
        root = tmp_path / "listed"
        root.mkdir()
        names = sorted(f"{c * 32}.pdf" for c in "abc")
        for name in names:
            (root / name).write_bytes(b"%PDF-1.4 listed")
        server = StaticFixtureServer(root)
        server.start()
        try:
            report = run_audit(ProbeTarget(server.base_url, max_sequential=2))
        finally:
            server.stop()
        assert report.verdicts[Rule.R2_LISTING_OR_INDEX] is Verdict.FAIL
        assert report.verdicts[Rule.R3_GUESSABLE_NAMES] is Verdict.PASS
        assert report.verdicts[Rule.R1_DIRECT_ACCESS] is Verdict.FAIL
        assert report.verdicts[Rule.R4_STATIC_SERVING] is Verdict.FAIL
        # at most max_sequential of the listed names are fetched
        assert [f.url for f in report.findings_for(Rule.R1_DIRECT_ACCESS)] == [
            server.base_url + name for name in names[:2]
        ]
        assert report.probes_sent == 1 + 2 + 2

    def test_unreachable_all_indeterminate(self):
        report = run_audit(ProbeTarget("http://127.0.0.1:1/", timeout=0.2))
        assert all(v is Verdict.INDETERMINATE for v in report.verdicts.values())
        assert report.indeterminate and not report.passed

    def test_fail_iff_findings(self, vulnerable_server, hardened_server):
        for report in (
            run_audit(ProbeTarget(vulnerable_server.base_url)),
            run_audit(ProbeTarget(hardened_server.base_url + "docs/")),
        ):
            for rule, verdict in report.verdicts.items():
                has_findings = bool(report.findings_for(rule))
                assert (verdict is Verdict.FAIL) == has_findings

    def test_monotonic_under_added_vulnerability(self, tmp_path):
        root = tmp_path / "grow"
        root.mkdir()
        (root / "index.html").write_bytes(emit_index_placeholder())
        server = StaticFixtureServer(root)
        server.start()
        try:
            target = ProbeTarget(server.base_url, max_sequential=30)
            before = run_audit(target)
            (root / "1.pdf").write_bytes(b"%PDF new leak")
            after = run_audit(target)
        finally:
            server.stop()
        for rule, verdict in before.verdicts.items():
            if verdict is Verdict.FAIL:
                assert after.verdicts[rule] is Verdict.FAIL

    def test_read_only(self, vulnerable_server):
        run_audit(ProbeTarget(vulnerable_server.base_url, max_sequential=50))
        methods = {m for m, _ in vulnerable_server.method_log}
        assert methods <= {"GET", "HEAD"}

    def test_json_report(self, vulnerable_server):
        import json

        report = run_audit(ProbeTarget(vulnerable_server.base_url))
        data = json.loads(report.to_json())
        assert data["verdicts"]["R3_GuessableNames"] == "Fail"
        assert data["probes_sent"] == report.probes_sent

    def test_critical_findings_carry_evidence_url(self, vulnerable_server):
        report = run_audit(ProbeTarget(vulnerable_server.base_url))
        for f in report.findings:
            if f.severity is Severity.CRITICAL:
                assert f.url.startswith("http://")


class TestPoliteness:
    def test_delay_honored(self, vulnerable_server):
        delay_ms = 30
        target = ProbeTarget(
            vulnerable_server.base_url, max_sequential=5, miss_run=100,
            request_delay_ms=delay_ms,
        )
        auditor = Auditor(target)
        start = time.monotonic()
        auditor.probe_sequential_names()
        elapsed = time.monotonic() - start
        gaps = auditor.probes_sent - 1
        assert elapsed >= gaps * (delay_ms / 1000.0) * 0.8
