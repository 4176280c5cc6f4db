import hashlib
import os
import re
import signal
import socket
import subprocess
import sys
import time
from contextlib import suppress
from unittest import mock

import pytest

from docvault.cli import main
from docvault.config import load_config
from docvault.journal import JournalStore
from docvault.metadata import DocumentRecord, MetadataStore
from docvault.placement import emit_deny_config
from docvault.service import UPLOAD_READ

from conftest import StaticFixtureServer


@pytest.fixture
def env(tmp_path, monkeypatch):
    webroot = tmp_path / "webroot"
    webroot.mkdir()
    key_file = tmp_path / "key"
    key_file.write_bytes(b"cli-test-secret-key-0123456789\n")
    monkeypatch.setenv("VAULT_WEBROOT", str(webroot))
    monkeypatch.setenv("VAULT_DIR", str(webroot / "docs"))
    monkeypatch.setenv("VAULT_POLICY", "denied-subdir")
    monkeypatch.setenv("VAULT_KEY_FILE", str(key_file))
    monkeypatch.setenv("VAULT_STORE", str(tmp_path / "store.journal"))
    monkeypatch.delenv("VAULT_KEY", raising=False)
    return tmp_path


def _record(i: int, owner: str) -> DocumentRecord:
    return DocumentRecord(
        doc_id=f"d{i:06d}",
        owner=owner,
        original_filename=f"{i}.pdf",
        media_type="application/pdf",
        size_bytes=1,
        upload_timestamp=1_000_000 + i,
        slot=1_000_000 + i,
        opaque_name=hashlib.md5(b"%d" % i).hexdigest() + ".pdf",
        checksum="0" * 64,
    )


class TestInit:
    def test_fresh_init(self, env, capsys):
        assert main(["init"]) == 0
        out = capsys.readouterr().out
        assert "created" in out
        assert (env / "webroot" / "docs" / ".htaccess").read_bytes() == emit_deny_config()

    def test_rerun_already_compliant(self, env, capsys):
        main(["init"])
        capsys.readouterr()
        assert main(["init"]) == 0
        assert "already compliant" in capsys.readouterr().out

    def test_conflict_exit_1(self, env, capsys):
        docs = env / "webroot" / "docs"
        docs.mkdir()
        (docs / "index.html").write_bytes(b"foreign content")
        assert main(["init"]) == 1
        assert "refusing to overwrite" in capsys.readouterr().err


class TestResolvedPlacement:
    """init, serve and fsck decide containment on the resolved paths."""

    @pytest.fixture
    def outside(self, env, monkeypatch):
        monkeypatch.setenv("VAULT_POLICY", "outside-webroot")
        monkeypatch.setenv("VAULT_DIR", str(env / "vault"))
        (env / "webroot" / "docs").mkdir(mode=0o700)
        return env / "vault"

    def test_outside_vault_symlinked_into_webroot_refused(self, env, outside, capsys):
        outside.symlink_to(env / "webroot" / "docs")
        assert main(["init"]) == 2
        assert "lies inside" in capsys.readouterr().err
        assert main(["serve"]) == 2
        assert "lies inside" in capsys.readouterr().err

    def _swap_into_webroot(self, env, outside, capsys):
        assert main(["init"]) == 0
        source = env / "doc.pdf"
        source.write_bytes(b"%PDF data")
        capsys.readouterr()
        assert main(["ingest", str(source), "--owner", "alice"]) == 0
        doc_id = capsys.readouterr().out.split()[0]
        assert main(["fsck"]) == 0
        for blob in outside.iterdir():
            blob.unlink()
        outside.rmdir()
        outside.symlink_to(env / "webroot" / "docs")
        capsys.readouterr()
        return doc_id

    def test_vault_swapped_for_symlink_after_init(self, env, outside, capsys):
        # fsck reports the placement as a finding and still sweeps the store.
        doc_id = self._swap_into_webroot(env, outside, capsys)
        assert main(["fsck"]) == 1
        out = capsys.readouterr().out
        assert f"layout 1a: {outside} (outside-webroot placement, but {outside} lies inside " in out
        assert f"dangling-record: {doc_id} " in out
        assert "2 issue(s) found" in out

    def test_ingest_refused_after_swap(self, env, outside, capsys):
        self._swap_into_webroot(env, outside, capsys)
        source = env / "doc.pdf"
        assert main(["ingest", str(source), "--owner", "alice"]) == 2
        assert "lies inside" in capsys.readouterr().err
        assert list(outside.iterdir()) == []

    def test_outside_vault_named_through_link_in_webroot(self, env, outside, monkeypatch, capsys):
        (env / "elsewhere").mkdir(mode=0o700)
        (env / "webroot" / "link").symlink_to(env / "elsewhere")
        monkeypatch.setenv("VAULT_DIR", str(env / "webroot" / "link"))
        assert main(["init"]) == 2
        assert "lies inside" in capsys.readouterr().err
        monkeypatch.setenv("VAULT_POLICY", "denied-subdir")
        assert main(["init"]) == 0
        assert (env / "elsewhere" / ".htaccess").read_bytes() == emit_deny_config()
        assert main(["fsck"]) == 0

    def test_webroot_through_symlink(self, env, monkeypatch, capsys):
        (env / "site").symlink_to(env / "webroot")
        monkeypatch.setenv("VAULT_WEBROOT", str(env / "site"))
        assert main(["init"]) == 0
        assert (env / "webroot" / "docs" / ".htaccess").read_bytes() == emit_deny_config()
        assert main(["fsck"]) == 0

    def test_dotdot_after_symlink(self, env, monkeypatch, capsys):
        (env / "elsewhere" / "deep").mkdir(parents=True)
        (env / "webroot" / "link").symlink_to(env / "elsewhere" / "deep")
        monkeypatch.setenv("VAULT_DIR", f"{env}/webroot/link/../docs")
        assert main(["init"]) == 2
        assert "requires vault_dir inside" in capsys.readouterr().err
        assert not (env / "webroot" / "docs").exists()


class TestIngestLsGetRm:
    def test_ingest_and_fetch(self, env, capsys, tmp_path):
        main(["init"])
        capsys.readouterr()
        source = tmp_path / "paper.pdf"
        source.write_bytes(b"%PDF-1.4 body")
        assert main(["ingest", str(source), "--owner", "alice"]) == 0
        doc_id = capsys.readouterr().out.split()[0]

        assert main(["ls"]) == 0
        assert "paper.pdf" in capsys.readouterr().out

        out_file = tmp_path / "fetched.pdf"
        assert main(["get", doc_id, "-o", str(out_file)]) == 0
        assert out_file.read_bytes() == b"%PDF-1.4 body"

        assert main(["rm", doc_id]) == 0
        capsys.readouterr()
        assert main(["get", doc_id, "-o", str(out_file)]) == 1

    def test_ingest_refuses_a_name_with_a_separator(self, env, capsys, tmp_path):
        main(["init"])
        source = tmp_path / "src.txt"
        source.write_bytes(b"stored text")
        capsys.readouterr()
        assert main(["ingest", str(source), "--owner", "alice",
                     "--filename", "../escaped.txt"]) == 1
        assert "error:" in capsys.readouterr().err
        with JournalStore(env / "store.journal") as journal:
            assert MetadataStore(journal).list_all()[0] == []

    def test_get_stays_in_working_directory(self, env, capsys, tmp_path, monkeypatch):
        main(["init"])
        capsys.readouterr()
        source = tmp_path / "src.txt"
        source.write_bytes(b"stored text")
        main(["ingest", str(source), "--owner", "alice", "--filename", "escaped.txt"])
        doc_id = capsys.readouterr().out.split()[0]
        # a store written before uploads refused separators may hold such a name
        with JournalStore(env / "store.journal") as journal:
            value = journal.get("doc:" + doc_id)
            journal.put("doc:" + doc_id, {**value, "original_filename": "../escaped.txt"})
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["get", doc_id]) == 0
        assert (work / "escaped.txt").read_bytes() == b"stored text"
        assert not (tmp_path / "escaped.txt").exists()
        # a second get refuses to overwrite what the first wrote
        (work / "escaped.txt").write_bytes(b"mine")
        assert main(["get", doc_id]) == 1
        assert (work / "escaped.txt").read_bytes() == b"mine"

    def test_ls_owner_filter(self, env, capsys, tmp_path):
        main(["init"])
        f = tmp_path / "a.txt"
        f.write_bytes(b"text")
        main(["ingest", str(f), "--owner", "alice"])
        main(["ingest", str(f), "--owner", "bob", "--filename", "b.txt"])
        capsys.readouterr()
        main(["ls", "--owner", "bob"])
        out = capsys.readouterr().out
        assert "b.txt" in out and "a.txt" not in out

    def test_ls_walks_every_page(self, env, capsys):
        main(["init"])
        # more records than the 10,000 one page once held; no blobs needed
        with mock.patch("os.fsync"), JournalStore(env / "store.journal") as journal:
            store = MetadataStore(journal)
            for i in range(10_001):
                store.put_record(_record(i, "alice"))
            store.put_record(_record(10_001, "bob"))
        capsys.readouterr()
        assert main(["ls", "--owner", "alice"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10_001
        assert [ln.split()[0] for ln in lines] == [_record(i, "alice").doc_id for i in range(10_001)]
        assert main(["ls"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10_002

    def test_ingest_missing_file(self, env, capsys):
        main(["init"])
        assert main(["ingest", "/nonexistent/f.pdf", "--owner", "x"]) == 2


class TestToken:
    def test_create_prints_once(self, env, capsys):
        main(["init"])
        assert main(["token", "create", "alice"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"token: (t[0-9a-f]+\.[0-9a-f]+)", out)
        assert match
        # only the digest lands in the store
        secret = match.group(1).split(".", 1)[1]
        assert secret.encode() not in (env / "store.journal").read_bytes()

    def test_revoke_then_revoke_again(self, env, capsys):
        main(["init"])
        main(["token", "create", "alice"])
        token_id = re.search(r"token_id: (\S+)", capsys.readouterr().out).group(1)
        assert main(["token", "revoke", token_id]) == 0
        assert main(["token", "revoke", token_id]) == 1


    def test_empty_username_is_one_error_line(self, env, capsys, tmp_path):
        main(["init"])
        source = tmp_path / "a.txt"
        source.write_bytes(b"text")
        capsys.readouterr()
        for argv in (["token", "create", ""], ["ingest", str(source), "--owner", ""],
                     ["token", "create", "a\x00b"], ["ingest", str(source), "--owner", "a\x00b"],
                     ["token", "create", "\udcff"], ["ingest", str(source), "--owner", "\udcff"]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ")
        assert b"token:" not in (env / "store.journal").read_bytes()

    def test_argument_that_is_not_utf8_is_one_error_line(self, env):
        main(["init"])
        # the environment the fixture set up, as `vault serve` is run below
        done = subprocess.run([sys.executable, "-m", "docvault.cli", "token", "create", b"\xff"],
                              capture_output=True, env=os.environ)
        assert done.returncode == 1
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: ") and len(done.stderr.splitlines()) == 1
        assert b"token:" not in (env / "store.journal").read_bytes()


class TestFsck:
    def _ingest(self, env, tmp_path, capsys, content=b"%PDF data"):
        capsys.readouterr()
        source = tmp_path / "doc.pdf"
        source.write_bytes(content)
        main(["ingest", str(source), "--owner", "alice"])
        return capsys.readouterr().out.split()[0]

    def test_clean(self, env, capsys, tmp_path):
        main(["init"])
        self._ingest(env, tmp_path, capsys)
        assert main(["fsck"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_deleted_blob_reported(self, env, capsys, tmp_path):
        main(["init"])
        doc_id = self._ingest(env, tmp_path, capsys)
        journal = JournalStore(env / "store.journal")
        record = MetadataStore(journal).get_by_id(doc_id)
        journal.close()
        (env / "webroot" / "docs" / record.opaque_name).unlink()
        assert main(["fsck"]) == 1
        out = capsys.readouterr().out
        assert "dangling-record" in out and doc_id in out

    def test_flipped_byte_reported(self, env, capsys, tmp_path):
        main(["init"])
        content = b"%PDF original"
        doc_id = self._ingest(env, tmp_path, capsys, content)
        journal = JournalStore(env / "store.journal")
        record = MetadataStore(journal).get_by_id(doc_id)
        journal.close()
        # independent expected checksum for the unflipped content
        assert record.checksum == hashlib.sha256(content).hexdigest()
        blob = env / "webroot" / "docs" / record.opaque_name
        data = bytearray(blob.read_bytes())
        data[3] ^= 0x01
        blob.write_bytes(bytes(data))
        assert main(["fsck"]) == 1
        assert "checksum-mismatch" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["../x.pdf", "a/b.pdf"])
    def test_tampered_storage_name_is_one_error_line(self, env, capsys, tmp_path, name):
        main(["init"])
        doc_id = self._ingest(env, tmp_path, capsys)
        with JournalStore(env / "store.journal") as journal:
            journal.put("doc:" + doc_id, journal.get("doc:" + doc_id) | {"opaque_name": name})
        assert main(["fsck"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_missing_deny_file_reported(self, env, capsys, tmp_path):
        main(["init"])
        self._ingest(env, tmp_path, capsys)
        deny = env / "webroot" / "docs" / ".htaccess"
        deny.unlink()
        assert main(["fsck"]) == 1
        assert f"layout 1b: {deny} (protection file missing)" in capsys.readouterr().out

    def test_open_vault_mode_reported(self, env, capsys, tmp_path):
        main(["init"])
        self._ingest(env, tmp_path, capsys)
        vault = env / "webroot" / "docs"
        vault.chmod(0o755)
        assert main(["fsck"]) == 1
        out = capsys.readouterr().out
        assert f"layout perm: {vault} (" in out and "1 issue(s) found" in out

    def test_store_open_failure(self, env, capsys, monkeypatch):
        monkeypatch.setenv("VAULT_STORE", "/proc/definitely/not/writable/store")
        assert main(["fsck"]) == 2

    def test_needs_no_key(self, env, capsys, tmp_path, monkeypatch):
        main(["init"])
        self._ingest(env, tmp_path, capsys)
        monkeypatch.delenv("VAULT_KEY_FILE")
        assert main(["fsck"]) == 0
        assert capsys.readouterr().out == "clean\n"

    def test_missing_vault_dir(self, env, capsys):
        assert main(["fsck"]) == 2
        captured = capsys.readouterr()
        vault = env / "webroot" / "docs"
        assert captured.out == f"layout 1a: {vault} (vault dir missing)\n"
        assert captured.err.startswith(f"error: cannot open vault directory {vault}: ")
        assert not (env / "store.journal").exists()

    def test_missing_store_is_checked_as_empty_and_not_created(self, env, capsys,
                                                               monkeypatch):
        main(["init"])
        store = env / "state" / "store.journal"
        monkeypatch.setenv("VAULT_STORE", str(store))
        assert main(["fsck"]) == 0
        assert capsys.readouterr().out.endswith("clean\n")
        assert not store.exists() and not store.parent.exists()

    def test_unreadable_store(self, env, capsys, monkeypatch):
        main(["init"])
        monkeypatch.setenv("VAULT_STORE", str(env))  # a directory
        assert main(["fsck"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read store {env}: ")


class TestAudit:
    def test_audit_vulnerable_exit_1(self, env, capsys, tmp_path):
        root = tmp_path / "exposed"
        root.mkdir()
        (root / "1.pdf").write_bytes(b"%PDF leak")
        server = StaticFixtureServer(root)
        server.start()
        try:
            rc = main(["audit", server.base_url, "--max-seq", "30"])
        finally:
            server.stop()
        assert rc == 1
        out = capsys.readouterr().out
        assert "R3_GuessableNames: Fail" in out

    def test_audit_json_output(self, env, capsys, tmp_path):
        import json

        root = tmp_path / "safe"
        root.mkdir()
        (root / "index.html").write_bytes(b"<html><body></body></html>")
        server = StaticFixtureServer(root)
        server.start()
        try:
            rc = main(["audit", server.base_url, "--json", "--max-seq", "5"])
        finally:
            server.stop()
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdicts"]["R2_ListingOrIndex"] == "Pass"

    def test_audit_unreachable_exit_2(self, env, capsys):
        assert main(["audit", "http://127.0.0.1:1/", "--max-seq", "2"]) == 2


class TestServe:
    def test_serve_subprocess(self, env, free_port):
        import os
        import subprocess
        import sys
        import time

        import requests

        cli_env = {**os.environ, "VAULT_BIND": f"127.0.0.1:{free_port}"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "docvault.cli", "serve"],
            env=cli_env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 10
            while True:
                try:
                    resp = requests.get(f"http://127.0.0.1:{free_port}/healthz", timeout=1)
                    break
                except requests.RequestException:
                    assert time.monotonic() < deadline, "service never came up"
                    assert proc.poll() is None, proc.stdout.read().decode()
                    time.sleep(0.1)
            assert resp.json() == {"status": "ok"}
        finally:
            proc.terminate()
            proc.wait(timeout=5)
            proc.stdout.close()

    def test_sigterm_stops_the_service_and_exits_0(self, env, free_port, capsys):
        """SIGTERM right after a delete: serve stops the service, whose
        reaper unlinks the deleted blob before the exit, and exits 0."""
        import requests

        main(["init"])
        main(["token", "create", "alice"])
        token = re.search(r"token: (\S+)", capsys.readouterr().out)[1]
        auth = {"Authorization": f"Bearer {token}"}
        base = f"http://127.0.0.1:{free_port}"
        proc = subprocess.Popen([sys.executable, "-m", "docvault.cli", "serve"],
                                env={**os.environ, "VAULT_BIND": f"127.0.0.1:{free_port}"},
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            for _ in range(100):
                with suppress(requests.ConnectionError):
                    requests.get(f"{base}/healthz", timeout=1)
                    break
                time.sleep(0.1)
            up = requests.post(f"{base}/documents?filename=big.bin", headers=auth,
                               data=os.urandom(3 * UPLOAD_READ + 1), timeout=30)
            assert up.status_code == 201
            gone = requests.delete(f"{base}/documents/{up.json()['doc_id']}", headers=auth,
                                   timeout=10)
            assert gone.status_code == 200
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err.decode()
        assert b"Traceback" not in err
        assert main(["fsck"]) == 0
        assert capsys.readouterr().out == "clean\n"

    def test_port_in_use_is_one_error_line(self, env):
        """Exit 2 with one line that names the address; under -X dev a file
        left open would add a ResourceWarning to stderr."""
        main(["init"])
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            address = "127.0.0.1:%d" % held.getsockname()[1]
            done = subprocess.run([sys.executable, "-X", "dev", "-m", "docvault.cli", "serve"],
                                  capture_output=True, timeout=30,
                                  env={**os.environ, "VAULT_BIND": address})
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(f"error: {address}: ".encode())
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize("bind", ["127.0.0.1:99999", "127.0.0.1:-1"])
    def test_out_of_range_port_exit_2(self, env, monkeypatch, capsys, bind):
        monkeypatch.setenv("VAULT_BIND", bind)
        assert main(["serve"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_port_range_ends_are_accepted(self, env, monkeypatch):
        for port in (0, 65535):
            monkeypatch.setenv("VAULT_BIND", f"127.0.0.1:{port}")
            assert load_config().bind_port == port


class TestLayoutPlan:
    def test_one_plan_per_start(self, env, monkeypatch):
        import docvault.config
        from docvault.service import VaultService

        plan, calls = docvault.config.plan_layout, []
        monkeypatch.setattr(docvault.config, "plan_layout",
                            lambda *args: calls.append(args) or plan(*args))
        monkeypatch.setenv("VAULT_BIND", "127.0.0.1:0")
        service = VaultService(load_config())
        service.start()
        service.stop()
        assert len(calls) == 1

    def test_load_config_does_not_plan(self, env, monkeypatch):
        import docvault.config

        calls = []
        monkeypatch.setattr(docvault.config, "plan_layout", lambda *args: calls.append(args))
        load_config()
        assert calls == []


class TestConfigFile:
    def test_config_file_used(self, tmp_path, monkeypatch, capsys):
        for var in ("VAULT_WEBROOT", "VAULT_DIR", "VAULT_POLICY", "VAULT_KEY_FILE",
                    "VAULT_STORE", "VAULT_KEY"):
            monkeypatch.delenv(var, raising=False)
        webroot = tmp_path / "www"
        webroot.mkdir()
        key = tmp_path / "key"
        key.write_bytes(b"config-file-secret-key-012345")
        cfg = tmp_path / "vault.conf"
        cfg.write_text(
            f"VAULT_WEBROOT={webroot}\n"
            f"VAULT_DIR={webroot / 'docs'}\n"
            "VAULT_POLICY=obscured-subdir\n"
            f"VAULT_KEY_FILE={key}\n"
            f"VAULT_STORE={tmp_path / 's.journal'}\n"
        )
        assert main(["--config", str(cfg), "init"]) == 0
        assert (webroot / "docs" / "index.html").exists()

    def _key_config(self, tmp_path, monkeypatch, extra: str):
        for var in ("VAULT_WEBROOT", "VAULT_DIR", "VAULT_POLICY", "VAULT_KEY_FILE",
                    "VAULT_STORE", "VAULT_KEY"):
            monkeypatch.delenv(var, raising=False)
        webroot = tmp_path / "www"
        webroot.mkdir()
        cfg = tmp_path / "vault.conf"
        cfg.write_text(
            f"VAULT_WEBROOT={webroot}\n"
            f"VAULT_DIR={webroot / 'docs'}\n"
            f"VAULT_STORE={tmp_path / 's.journal'}\n" + extra
        )
        return str(cfg)

    def test_key_in_config_file(self, tmp_path, monkeypatch, capsys):
        cfg = self._key_config(tmp_path, monkeypatch, "VAULT_KEY=config-file-secret-key-012345\n")
        assert main(["--config", cfg, "init"]) == 0
        assert main(["--config", cfg, "ls"]) == 0
        config = load_config(cfg)
        assert config.load_key().octets == b"config-file-secret-key-012345"
        assert "config-file-secret-key" not in repr(config)

    def test_key_file_wins_over_key(self, tmp_path, monkeypatch):
        key = tmp_path / "key"
        key.write_bytes(b"key-file-secret-key-0123456789")
        cfg = self._key_config(
            tmp_path, monkeypatch, f"VAULT_KEY_FILE={key}\nVAULT_KEY=config-file-secret-key-012345\n"
        )
        assert load_config(cfg).load_key().octets == b"key-file-secret-key-0123456789"

    def test_missing_config_exit_2(self, tmp_path, monkeypatch):
        for var in ("VAULT_WEBROOT", "VAULT_DIR", "VAULT_KEY_FILE", "VAULT_STORE"):
            monkeypatch.delenv(var, raising=False)
        assert main(["init"]) == 2


class TestKeyFile:
    @pytest.mark.parametrize("verb", ["ls", "serve"])
    def test_a_missing_key_file_is_one_error_line(self, env, monkeypatch, capsys, verb):
        main(["init"])
        missing = env / "no-such-key"
        monkeypatch.setenv("VAULT_KEY_FILE", str(missing))
        capsys.readouterr()
        assert main([verb]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {missing}: ")
        assert captured.err.count("\n") == 1
