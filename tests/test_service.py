import ctypes
import email.utils
import errno
import hashlib
import io
import json
import os
import socket
import stat
import struct
import sys
import threading
import time
import unicodedata
from contextlib import suppress
from urllib.parse import unquote

import pytest
import requests
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from docvault import delivery, service
from docvault.access import Principal, Role
from docvault.errors import StorageFailure
from docvault.journal import JournalStore, ReadOnlyJournal
from docvault.metadata import MetadataStore, check_consistency
from docvault.naming import SecretKey, derive_opaque_name, extension_for
from docvault.service import VaultCore, VaultRequestHandler, VaultService

from conftest import TEST_KEY, inode, make_config


@pytest.fixture
def svc(running_service):
    return running_service


@pytest.fixture
def user_token(svc):
    _, plaintext = svc.core.tokens.create_token("alice", Role.USER)
    return plaintext


@pytest.fixture
def admin_token(svc):
    _, plaintext = svc.core.tokens.create_token("root", Role.ADMIN)
    return plaintext


def auth(token):
    return {"Authorization": f"Bearer {token}"}


def upload(svc, token, filename, content: bytes):
    resp = requests.post(
        f"{svc.base_url}/documents",
        params={"filename": filename},
        data=content,
        headers=auth(token),
    )
    return resp


class TestHealth:
    def test_healthz_open(self, svc):
        resp = requests.get(f"{svc.base_url}/healthz")
        assert resp.status_code == 200
        assert resp.json() == {"status": "ok"}
        assert resp.headers["Server"] == "DocVault"  # no Python version


class TestUpload:
    def test_upload_roundtrip(self, svc, user_token):
        content = b"%PDF-1.4 content here"
        resp = upload(svc, user_token, "report.pdf", content)
        assert resp.status_code == 201
        doc = resp.json()
        assert doc["owner"] == "alice"
        assert doc["original_filename"] == "report.pdf"
        assert doc["media_type"] == "application/pdf"
        assert doc["size_bytes"] == len(content)

        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert got.status_code == 200
        assert got.content == content

    def test_upload_requires_auth(self, svc):
        resp = requests.post(
            f"{svc.base_url}/documents", params={"filename": "a.pdf"}, data=b"x"
        )
        assert resp.status_code == 401

    def test_upload_requires_filename(self, svc, user_token):
        resp = requests.post(
            f"{svc.base_url}/documents", data=b"x", headers=auth(user_token)
        )
        assert resp.status_code == 400

    @pytest.mark.parametrize("name", [
        "../x", "a%5Cb.pdf", "a%00b.pdf", "a%0D%0Ab.pdf", "a%C2%85b.pdf", "x" * 256,
    ], ids=["dotdot", "backslash", "nul", "crlf", "c1", "256-bytes"])
    def test_name_breaking_the_rule_is_refused(self, svc, user_token, name):
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        headers = {"Authorization": f"Bearer {user_token}", "Content-Length": str(len(smuggled))}
        raw = raw_exchange(svc, post_request(svc.address, headers, smuggled,
                                             f"/documents?filename={name}"))
        assert raw.count(b"HTTP/1.1 ") == 1, raw  # the unread body is never parsed
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert body == b'{"error": "invalid filename"}'
        assert svc.core.records.list_all()[0] == []
        assert sorted(p.name for p in svc.core.vault_dir.iterdir()) == [".htaccess", "index.html"]

    def test_zero_byte_upload(self, svc, user_token):
        resp = upload(svc, user_token, "empty.pdf", b"")
        assert resp.status_code == 201
        doc = resp.json()
        assert doc["size_bytes"] == 0
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert got.status_code == 200
        assert got.content == b""
        assert got.headers["Content-Length"] == "0"

    def test_too_large_leaves_nothing(self, svc, user_token, vault_config):
        big = b"x" * (vault_config.max_upload_bytes + 1)
        resp = upload(svc, user_token, "big.pdf", big)
        assert resp.status_code == 413
        blobs = [
            p for p in svc.core.vault_dir.iterdir()
            if p.name not in (".htaccess", "index.html")
        ]
        assert blobs == []
        records, _ = svc.core.records.list_all()
        assert records == []

    def test_response_never_reveals_opaque_name(self, svc, user_token):
        resp = upload(svc, user_token, "secret.pdf", b"%PDF-1.4 payload")
        record, = svc.core.records.list_all()[0]
        opaque = record.opaque_name.encode()
        assert opaque not in resp.content
        assert opaque not in json.dumps(dict(resp.headers)).encode()

    def test_same_second_collision_bumps_timestamp(self, svc, user_token):
        a = upload(svc, user_token, "one.pdf", b"first").json()
        b = upload(svc, user_token, "two.pdf", b"second").json()
        assert a["doc_id"] != b["doc_id"]
        got_a = requests.get(
            f"{svc.base_url}/documents/{a['doc_id']}", headers=auth(user_token)
        )
        got_b = requests.get(
            f"{svc.base_url}/documents/{b['doc_id']}", headers=auth(user_token)
        )
        assert got_a.content == b"first"
        assert got_b.content == b"second"


class TestDownload:
    def test_header_recipe(self, svc, user_token):
        content = b"%PDF-1.4 " + b"p" * 100
        doc = upload(svc, user_token, "yourFile.pdf", content).json()
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert got.headers["Content-Type"] == "application/pdf"
        assert got.headers["Content-Length"] == str(len(content))
        assert got.headers["Accept-Ranges"] == "bytes"
        assert got.headers["Content-Disposition"] == 'attachment; filename="yourFile.pdf"'

    def test_range_request(self, svc, user_token):
        content = bytes(range(100))
        doc = upload(svc, user_token, "data.bin", content).json()
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}",
            headers={**auth(user_token), "Range": "bytes=10-19"},
        )
        assert got.status_code == 206
        assert got.content == content[10:20]
        assert got.headers["Content-Range"] == "bytes 10-19/100"
        assert got.headers["Content-Length"] == "10"

    def test_unsatisfiable_range(self, svc, user_token):
        doc = upload(svc, user_token, "small.txt", b"tiny").json()
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}",
            headers={**auth(user_token), "Range": "bytes=100-"},
        )
        assert got.status_code == 416

    def test_multi_range_served_whole(self, svc, user_token):
        content = b"0123456789"
        doc = upload(svc, user_token, "x.txt", content).json()
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}",
            headers={**auth(user_token), "Range": "bytes=0-1,4-5"},
        )
        assert got.status_code == 200
        assert got.content == content

    def test_no_token_unauthenticated(self, svc, user_token):
        doc = upload(svc, user_token, "a.pdf", b"data").json()
        got = requests.get(f"{svc.base_url}/documents/{doc['doc_id']}")
        assert got.status_code == 401

    def test_other_user_sees_not_found(self, svc, user_token):
        doc = upload(svc, user_token, "private.pdf", b"owner only").json()
        _, other = svc.core.tokens.create_token("mallory", Role.USER)
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(other)
        )
        assert got.status_code == 404

    def test_admin_can_read(self, svc, user_token, admin_token):
        doc = upload(svc, user_token, "a.pdf", b"data").json()
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(admin_token)
        )
        assert got.status_code == 200

    def test_blob_missing_is_server_error(self, svc, user_token):
        doc = upload(svc, user_token, "a.pdf", b"data").json()
        record = svc.core.records.get_by_id(doc["doc_id"])
        (svc.core.vault_dir / record.opaque_name).unlink()
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert got.status_code == 500
        assert record.opaque_name not in got.text

    @pytest.mark.parametrize("name", ["../x.pdf", "a/b.pdf"])
    def test_tampered_storage_name_is_internal_error(self, svc, user_token, name):
        """A stored name that is not of the derived form is never opened."""
        doc_id = upload(svc, user_token, "a.pdf", b"data").json()["doc_id"]
        value = svc.core.journal.get("doc:" + doc_id)
        svc.core.journal.put("doc:" + doc_id, value | {"opaque_name": name})
        got = requests.get(f"{svc.base_url}/documents/{doc_id}", headers=auth(user_token))
        assert got.status_code == 500
        assert got.json() == {"error": "internal error"}
        assert got.headers["Connection"] == "close"


class TestListDelete:
    def test_list_own(self, svc, user_token):
        upload(svc, user_token, "a.pdf", b"a")
        upload(svc, user_token, "b.pdf", b"b")
        resp = requests.get(f"{svc.base_url}/documents", headers=auth(user_token))
        docs = resp.json()["documents"]
        assert {d["original_filename"] for d in docs} == {"a.pdf", "b.pdf"}

    def test_fresh_user_empty(self, svc):
        _, token = svc.core.tokens.create_token("newbie", Role.USER)
        resp = requests.get(f"{svc.base_url}/documents", headers=auth(token))
        assert resp.json()["documents"] == []

    def test_admin_lists_all(self, svc, user_token, admin_token):
        upload(svc, user_token, "a.pdf", b"a")
        _, bob = svc.core.tokens.create_token("bob", Role.USER)
        upload(svc, bob, "b.pdf", b"b")
        resp = requests.get(f"{svc.base_url}/documents", headers=auth(admin_token))
        docs = resp.json()["documents"]
        # oracle: sweep the store directly
        all_records, _ = svc.core.records.list_all()
        assert {d["doc_id"] for d in docs} == {r.doc_id for r in all_records}

    def test_delete_then_download(self, svc, user_token):
        doc = upload(svc, user_token, "gone.pdf", b"data").json()
        resp = requests.delete(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert resp.status_code == 200
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert got.status_code == 404

    def test_double_delete(self, svc, user_token):
        doc = upload(svc, user_token, "x.pdf", b"data").json()
        requests.delete(f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token))
        again = requests.delete(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert again.status_code == 404

    def test_non_owner_delete_not_found(self, svc, user_token):
        doc = upload(svc, user_token, "x.pdf", b"data").json()
        _, other = svc.core.tokens.create_token("mallory", Role.USER)
        resp = requests.delete(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(other)
        )
        assert resp.status_code == 404
        assert svc.core.records.get_by_id(doc["doc_id"]) is not None

    def test_delete_removes_blob(self, svc, user_token):
        doc = upload(svc, user_token, "x.pdf", b"data").json()
        record = svc.core.records.get_by_id(doc["doc_id"])
        blob = svc.core.vault_dir / record.opaque_name
        assert blob.exists()
        requests.delete(f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token))
        assert not blob.exists()


class TestRecordMap:
    def test_deleted_record_is_gone_everywhere(self, svc, user_token, admin_token):
        """A record read into the map, by a listing and a download, leaves it
        when the delete returns."""
        docs = sorted((upload(svc, user_token, f"{i}.pdf", b"data").json() for i in range(3)),
                      key=lambda d: (d["upload_timestamp"], d["doc_id"]))
        gone = docs[1]["doc_id"]
        url = f"{svc.base_url}/documents/{gone}"
        assert requests.get(url, headers=auth(user_token)).status_code == 200
        assert walk_listing(svc, admin_token) == docs
        assert requests.delete(url, headers=auth(user_token)).status_code == 200
        assert svc.core.records.get_by_id(gone) is None
        for token in (user_token, admin_token):
            assert walk_listing(svc, token) == [docs[0], docs[2]]
        got = requests.get(url, headers=auth(user_token))
        assert got.status_code == 404
        assert got.json() == {"error": "not found"}


class TestReadsBesideAWriter:
    def test_denied_and_missing_gets_never_wait_on_a_writer(self, vault_config):
        """With the journal's writer lock held, as across an append and its
        fsync, a GET of someone else's undecoded document and a GET of one
        that never existed get the same 404 within a second, and a listing
        its page or its refusal of a stale cursor."""
        seed = VaultService(vault_config, key=SecretKey(TEST_KEY))
        seed.start()
        try:
            _, alice = seed.core.tokens.create_token("alice", Role.USER)
            _, bob = seed.core.tokens.create_token("bob", Role.USER)
            doc_id = upload(seed, alice, "a.pdf", b"alice only").json()["doc_id"]
        finally:
            seed.stop()
        svc = VaultService(vault_config, key=SecretKey(TEST_KEY))  # start-up decodes nothing
        svc.start()
        held, release = threading.Event(), threading.Event()

        def writer():
            with svc.journal.lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=writer)
        holder.start()

        def reply(target):
            raw = raw_exchange(svc, (
                f"GET {target} HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer {bob}\r\n"
                "Connection: close\r\n\r\n").encode(), timeout=1.0)
            return [ln for ln in raw.split(b"\r\n") if not ln.startswith(b"Date: ")]

        try:
            assert held.wait(5)
            denied = reply(f"/documents/{doc_id}")
            missing = reply("/documents/d" + "0" * 24)
            listing = reply("/documents")
            stale = reply("/documents?cursor=d" + "0" * 24)
        finally:
            release.set()
            holder.join()
            svc.stop()
        assert denied[0].startswith(b"HTTP/1.1 404 ")
        assert denied == missing
        assert listing[0].startswith(b"HTTP/1.1 200 ")
        assert json.loads(listing[-1]) == {"documents": [], "next_cursor": None}
        assert stale[0].startswith(b"HTTP/1.1 400 ")
        assert json.loads(stale[-1]) == {"error": "invalid cursor"}


class TestListCursor:
    def test_stale_and_foreign_cursors_get_one_identical_reply(self, svc, user_token,
                                                               admin_token):
        order = lambda d: (d["upload_timestamp"], d["doc_id"])  # noqa: E731
        mine = sorted((upload(svc, user_token, f"{i}.pdf", b"x").json() for i in range(3)),
                      key=order)
        _, bob = svc.core.tokens.create_token("bob", Role.USER)
        theirs = upload(svc, bob, "b.pdf", b"y").json()

        def page(token, cursor):
            return requests.get(f"{svc.base_url}/documents", params={"cursor": cursor},
                                headers=auth(token)).json()

        assert page(user_token, mine[0]["doc_id"]) == {"documents": mine[1:], "next_cursor": None}
        # an admin's cursor may name any live record
        everyone = sorted(mine + [theirs], key=order)
        assert page(admin_token, everyone[0]["doc_id"]) == {"documents": everyone[1:],
                                                            "next_cursor": None}
        requests.delete(f"{svc.base_url}/documents/{mine[0]['doc_id']}", headers=auth(user_token))

        def reply(cursor):
            raw = raw_exchange(svc, (
                f"GET /documents?cursor={cursor} HTTP/1.1\r\nHost: x\r\n"
                f"Authorization: Bearer {user_token}\r\nConnection: close\r\n\r\n"
            ).encode())
            return [ln for ln in raw.split(b"\r\n") if not ln.startswith(b"Date: ")]

        never = reply("d" + "0" * 24)
        assert never[0] == b"HTTP/1.1 400 Bad Request"
        assert never[-1] == b'{"error": "invalid cursor"}'
        assert reply(theirs["doc_id"]) == never
        assert reply(mine[0]["doc_id"]) == never


class TestStaticIsolation:
    def test_direct_blob_path_404(self, svc, user_token):
        doc = upload(svc, user_token, "x.pdf", b"%PDF-1.4 secret").json()
        record = svc.core.records.get_by_id(doc["doc_id"])
        name = record.opaque_name
        for path in (f"/docs/{name}", f"/{name}", f"/webroot/docs/{name}"):
            got = requests.get(f"{svc.base_url}{path}", headers=auth(user_token))
            assert got.status_code == 404, path
            assert b"secret" not in got.content

    def test_traversal_rejected(self, svc, user_token):
        sess = requests.Session()
        for path in ("/documents/..%2fdocs", "/..%2f..%2fetc%2fpasswd",
                     "/documents/%2e%2e/x", "/a/../b"):
            req = requests.Request(
                "GET", f"{svc.base_url}{path}", headers=auth(user_token)
            ).prepare()
            req.url = f"{svc.base_url}{path}"  # defeat client-side normalization
            got = sess.send(req)
            assert got.status_code == 400, path

    def test_mediated_endpoint_works(self, svc, user_token):
        doc = upload(svc, user_token, "x.pdf", b"content").json()
        got = requests.get(
            f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token)
        )
        assert got.status_code == 200


class TestRawSocketHeaders:
    def test_exact_download_headers(self, svc, user_token):
        content = b"%PDF-1.4 " + b"z" * 50
        doc = upload(svc, user_token, "yourFile.pdf", content).json()
        host, port = svc.address
        with socket.create_connection((host, port), timeout=5) as sock:
            request = (
                f"GET /documents/{doc['doc_id']} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Authorization: Bearer {user_token}\r\n"
                f"Connection: close\r\n\r\n"
            )
            sock.sendall(request.encode())
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers == {
            "Content-Type": "application/pdf",
            "Content-Length": str(len(content)),
            "Accept-Ranges": "bytes",
            "Content-Disposition": 'attachment; filename="yourFile.pdf"',
        }
        assert body == content


class TestExtensionMapping:
    @pytest.mark.parametrize(
        "filename,ext",
        [
            ("report.PDF", "pdf"),
            ("archive.tar.gz", "gz"),
            ("noext", "bin"),
            ("weird.<>!", "bin"),
            ("x.superlongext1", "bin"),
        ],
    )
    def test_cases(self, filename, ext):
        assert extension_for(filename) == ext


class TestOpaqueNameScrubbing:
    def test_no_endpoint_leaks_storage_names(self, svc, user_token, admin_token):
        created = upload(svc, user_token, "a.pdf", b"%PDF-1.4 one")
        upload(svc, user_token, "b.txt", b"two")
        records = svc.core.records.list_all()[0]
        names = [r.opaque_name for r in records] + [r.checksum for r in records]
        vault_path = str(svc.core.vault_dir)
        for r in records:
            for secret in (b"opaque_name", b"checksum", vault_path.encode()):
                assert secret not in r.public_row

        responses = [
            created,
            requests.get(f"{svc.base_url}/documents", headers=auth(user_token)),
            requests.get(f"{svc.base_url}/documents", headers=auth(admin_token)),
            requests.get(f"{svc.base_url}/documents", params={"cursor": records[0].doc_id},
                         headers=auth(user_token)),
            requests.get(f"{svc.base_url}/documents/missing", headers=auth(user_token)),
            requests.get(f"{svc.base_url}/healthz"),
            requests.get(f"{svc.base_url}/nope", headers=auth(user_token)),
            requests.post(f"{svc.base_url}/documents", headers=auth(user_token)),
        ]
        for resp in responses:
            blob_text = resp.content + json.dumps(dict(resp.headers)).encode()
            assert vault_path.encode() not in blob_text
            for name in names:
                assert name.encode() not in blob_text


def raw_exchange(svc, request: bytes, timeout: float = 2.0, half_close=False) -> bytes:
    """Send raw request bytes, and with ``half_close`` end the stream after
    them; read until the server closes or goes quiet."""
    with socket.create_connection(svc.address, timeout=timeout) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        raw = b""
        try:
            while chunk := sock.recv(65536):
                raw += chunk
        except (TimeoutError, ConnectionResetError):
            pass
    return raw


def post_request(host_port, headers: dict, body: bytes = b"",
                 target="/documents?filename=a.txt") -> bytes:
    """A raw upload request; its head is encoded as UTF-8."""
    lines = [f"POST {target} HTTP/1.1", "Host: %s:%d" % host_port]
    lines += [f"{k}: {v}" for k, v in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class TestDownloadOrder:
    def test_denied_range_reads_as_missing(self, svc, user_token):
        doc = upload(svc, user_token, "private.pdf", b"owner only").json()
        _, other = svc.core.tokens.create_token("mallory", Role.USER)
        missing = "0" * len(doc["doc_id"])

        def reply(doc_id):
            raw = raw_exchange(svc, (
                f"GET /documents/{doc_id} HTTP/1.1\r\n"
                f"Host: x\r\nAuthorization: Bearer {other}\r\n"
                f"Range: bytes=999-\r\nConnection: close\r\n\r\n"
            ).encode())
            return [ln for ln in raw.split(b"\r\n") if not ln.startswith(b"Date: ")]

        existing = reply(doc["doc_id"])
        assert existing[0] == b"HTTP/1.1 404 Not Found"
        assert existing == reply(missing)


class TestEarlyUploadReplies:
    """A reply sent before the body is read must not leave the body to be
    parsed as a second request on the same connection."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize("case,status", [
        ("no-auth", 401), ("no-filename", 400), ("no-length", 411), ("too-large", 413),
    ])
    def test_one_response_then_close(self, svc, user_token, vault_config, case, status):
        headers = {"Authorization": f"Bearer {user_token}",
                   "Content-Length": str(len(self.SMUGGLED))}
        target = "/documents?filename=a.txt"
        if case == "no-auth":
            del headers["Authorization"]
        elif case == "no-filename":
            target = "/documents"
        elif case == "no-length":
            del headers["Content-Length"]
        else:
            headers["Content-Length"] = str(vault_config.max_upload_bytes + 1)
        raw = raw_exchange(svc, post_request(svc.address, headers, self.SMUGGLED, target))
        assert raw.count(b"HTTP/1.1 ") == 1, raw
        head = raw.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0].startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head

    @pytest.mark.parametrize("value,status", [
        ("-5", 400), ("abc", 411), ("1_0", 411), ("9" * 5000, 413),
    ])
    def test_bad_content_length_stores_nothing(self, svc, user_token, value, status):
        headers = {"Authorization": f"Bearer {user_token}", "Content-Length": value}
        raw = raw_exchange(svc, post_request(svc.address, headers, b"0123456789"))
        assert raw.startswith(f"HTTP/1.1 {status} ".encode())
        assert svc.core.records.list_all()[0] == []

    def test_expect_continue_is_answered_before_the_body(self, svc, user_token):
        headers = {"Authorization": f"Bearer {user_token}", "Content-Length": "5",
                   "Expect": "100-continue", "Connection": "close"}
        with socket.create_connection(svc.address, timeout=2) as sock:
            sock.sendall(post_request(svc.address, headers))
            assert sock.recv(65536).startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(b"hello")
            assert sock.recv(65536).startswith(b"HTTP/1.1 201 ")


class TestReplyPath:
    """Replies never wait on the client's delayed ACK (Nagle's algorithm)."""

    @pytest.fixture
    def sends(self, monkeypatch):
        """TCP_NODELAY of each accepted socket, and the bytes of every
        send/sendall the handler makes on it."""
        conns, nodelay, calls = [], [], []
        setup = VaultRequestHandler.setup

        def capturing_setup(handler):
            setup(handler)
            conns.append(handler.connection)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(VaultRequestHandler, "setup", capturing_setup)
        for name in ("send", "sendall"):
            def recording(sock, data, *args, _orig=getattr(socket.socket, name)):
                if any(sock is c for c in conns):
                    calls.append(bytes(data))
                return _orig(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, recording)
        return nodelay, calls

    @pytest.mark.parametrize("path", ["/healthz", "/nope"])
    def test_small_reply_is_one_send_with_nodelay(self, svc, sends, path):
        nodelay, calls = sends
        raw = raw_exchange(
            svc, f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".encode()
        )
        assert raw.startswith(b"HTTP/1.1 ")
        assert len(nodelay) == 1 and nodelay[0] != 0
        assert calls == [raw]


class TestBodyOnGetAndDelete:
    """A GET or DELETE body is never read, so it must not be parsed as the
    next request on the connection: the reply closes the connection.  A
    zero Content-Length announces no body and keeps it open."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize("framing", ["Content-Length", "Transfer-Encoding"])
    @pytest.mark.parametrize("route", ["healthz", "list", "download", "delete", "missing"])
    def test_one_response_then_close(self, svc, user_token, route, framing):
        doc = upload(svc, user_token, "a.txt", b"plain text").json()
        method, target = {
            "healthz": ("GET", "/healthz"),
            "list": ("GET", "/documents"),
            "download": ("GET", f"/documents/{doc['doc_id']}"),
            "delete": ("DELETE", f"/documents/{doc['doc_id']}"),
            "missing": ("DELETE", "/documents/dmissing"),
        }[route]
        framing_header = (f"Content-Length: {len(self.SMUGGLED)}"
                          if framing == "Content-Length" else "Transfer-Encoding: chunked")
        raw = raw_exchange(svc, (
            "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
            f"{method} {target} HTTP/1.1\r\nHost: x\r\n"
            f"Authorization: Bearer {user_token}\r\n{framing_header}\r\n\r\n"
        ).encode() + self.SMUGGLED)
        replies = raw.split(b"HTTP/1.1 ")[1:]
        assert len(replies) == 2, raw
        assert b"Connection: close" not in replies[0]
        assert b"Connection: close" in replies[1].split(b"\r\n\r\n", 1)[0]


class TestFraming:
    """A body that a proxy in front could frame differently is refused
    (RFC 9112 section 6.3): one 400 reply, then the connection closes, so
    the vault never answers a request the proxy did not send."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize("framing,body", [
        ("Content-Length: 3\r\nContent-Length: 40", b"abc"),
        ("Transfer-Encoding: chunked\r\nContent-Length: 15", b"5\r\nhello\r\n0\r\n\r\n"),
        ("Content-Length: 3\r\nContent-Length : 40", b"abc"),
        ("X-Note: a\r\n Transfer-Encoding: chunked\r\nContent-Length: 3", b"abc"),
    ], ids=["two-lengths", "chunked-and-length", "space-before-colon", "obs-fold"])
    def test_one_reply_then_close(self, svc, user_token, framing, body):
        raw = raw_exchange(svc, (
            "POST /documents?filename=a.txt HTTP/1.1\r\nHost: x\r\n"
            f"Authorization: Bearer {user_token}\r\n{framing}\r\n\r\n"
        ).encode() + body + self.SMUGGLED)
        assert raw.count(b"HTTP/1.1 ") == 1, raw
        head = raw.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert head[0] == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in head
        assert svc.core.records.list_all()[0] == []


class TestHttpServerRefusals:
    """Requests refused before any route runs, by http.server or by the
    request head's own checks, get the same kind of reply as every other
    refusal: a status line, a JSON body and a close.  The connection after
    them is served as usual."""

    @pytest.mark.parametrize("request_bytes,status", [
        (b"GARBAGE\r\n\r\n", b"400 Bad Request"),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n", b"414 Request-URI Too Long"),
        (b"GET /healthz HTTP/1.1\r\n" + b"".join(b"X-%d: y\r\n" % i for i in range(101))
         + b"\r\n", b"431 Request Header Fields Too Large"),
        (b"PUT /documents HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
         b"501 Not Implemented"),
        (b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n", b"505 HTTP Version Not Supported"),
        (b"GET /healthz\r\n\r\n", b"400 Bad Request"),
        (b"GET /healthz HTTP/1.1\r\n\r\n", b"400 Bad Request"),
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\nHost: y\r\n\r\n", b"400 Bad Request"),
    ], ids=["bad-request-line", "long-request-line", "101-fields", "put", "http-2",
            "http-0.9", "no-host", "two-hosts"])
    def test_json_reply_then_close(self, svc, request_bytes, status):
        raw = raw_exchange(svc, request_bytes)
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 " + status
        headers = dict(line.split(b": ", 1) for line in lines[1:])
        assert headers[b"Content-Type"] == b"application/json"
        assert headers[b"Connection"] == b"close"
        assert json.loads(body) == {"error": status.split(b" ", 1)[1].decode().lower()}
        assert b"<html" not in raw.lower()
        assert requests.get(f"{svc.base_url}/healthz").json() == {"status": "ok"}


class TestStrictReader:
    """The request head is read strictly (RFC 9112 sections 2.2 and 5): a
    head that a proxy in front could read otherwise gets one JSON 400 and a
    close, so the request behind it is never answered."""

    SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.mark.parametrize("head", [
        b"GET /healthz HTTP/1.1\r\nHost: x\nX-Note: a\r\n\r\n",
        b"GET /healthz HTTP/1.1\nHost: x\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Note: a\x00b\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Note: a\rb\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Note a\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX@Note: a\r\n\r\n",
    ], ids=["bare-lf-field-line", "bare-lf-request-line", "nul-in-value", "cr-in-value",
            "no-colon", "name-not-a-token"])
    def test_one_json_400_then_close(self, svc, head):
        raw = raw_exchange(svc, head + self.SMUGGLED)
        assert raw.count(b"HTTP/1.1 ") == 1, raw
        reply_head, _, body = raw.partition(b"\r\n\r\n")
        lines = reply_head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in lines
        assert json.loads(body) == {"error": "bad request"}

    def test_lowercase_field_names(self, svc, user_token):
        raw = raw_exchange(svc, (
            "POST /documents?filename=a.txt HTTP/1.1\r\nhost: x\r\n"
            f"authorization: Bearer {user_token}\r\ncontent-length: 5\r\n"
            "connection: close\r\n\r\nhello").encode())
        assert raw.startswith(b"HTTP/1.1 201 ")
        assert [d["original_filename"] for d in walk_listing(svc, user_token)] == ["a.txt"]

    def test_pipelined_requests_get_their_replies_in_order(self, svc, user_token):
        raw = raw_exchange(svc, (
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
            f"GET /documents HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer {user_token}\r\n"
            "Connection: close\r\n\r\n").encode())
        assert [r.split(b"\r\n", 1)[0] for r in raw.split(b"HTTP/1.1 ")[1:]] == [
            b"200 OK", b"404 Not Found", b"200 OK"]
        assert raw.endswith(b'{"documents": [], "next_cursor": null}')

    def test_reply_heads_keep_their_bytes(self, svc, user_token):
        """Each route's reply head, field for field and in order; only Date varies."""
        doc = upload(svc, user_token, "a.pdf", b"%PDF-1.4 hello").json()

        def head(target, extra=""):
            raw = raw_exchange(svc, (
                f"GET {target} HTTP/1.1\r\nHost: x\r\nAuthorization: Bearer {user_token}\r\n"
                f"{extra}Connection: close\r\n\r\n").encode())
            lines, _, body = raw.partition(b"\r\n\r\n")
            lines = lines.split(b"\r\n")
            dates = [i for i, line in enumerate(lines) if line.startswith(b"Date: ")]
            for i in dates:
                stamp = email.utils.parsedate_to_datetime(lines[i][6:].decode())
                assert abs(stamp.timestamp() - time.time()) < 5
                lines[i] = b"Date: *"
            return lines, len(body)

        def json_head(status, length):
            return [status, b"Server: DocVault", b"Date: *", b"Content-Type: application/json",
                    b"Content-Length: %d" % length]

        download = [b"Content-Type: application/pdf", b"Content-Length: 14",
                    b"Accept-Ranges: bytes", b'Content-Disposition: attachment; filename="a.pdf"']
        lines, length = head("/healthz")
        assert lines == json_head(b"HTTP/1.1 200 OK", 16) and length == 16
        lines, length = head("/documents")
        assert lines == json_head(b"HTTP/1.1 200 OK", length)
        lines, length = head("/documents/dmissing")
        assert lines == json_head(b"HTTP/1.1 404 Not Found", length) and length == 22
        assert head(f"/documents/{doc['doc_id']}") == ([b"HTTP/1.1 200 OK", *download], 14)
        ranged = [b"HTTP/1.1 206 Partial Content", *download, b"Content-Range: bytes 2-5/14"]
        ranged[2] = b"Content-Length: 4"
        assert head(f"/documents/{doc['doc_id']}", "Range: bytes=2-5\r\n") == (ranged, 4)


class TestReadTimeout:
    """A connection that stalls mid-head or mid-body does not hold its
    thread: it is dropped, and a stalled upload is answered 408."""

    @pytest.fixture
    def handler_threads(self, monkeypatch):
        monkeypatch.setattr(VaultRequestHandler, "timeout", 0.3)
        threads = []
        handle = VaultRequestHandler.handle

        def recording_handle(handler):
            threads.append(threading.current_thread())
            handle(handler)

        monkeypatch.setattr(VaultRequestHandler, "handle", recording_handle)
        return threads

    def test_the_shipped_timeout_is_finite(self):
        assert VaultRequestHandler.timeout is not None
        assert 0 < VaultRequestHandler.timeout < float("inf")

    def test_half_a_head_is_closed_and_its_thread_ends(self, svc, handler_threads):
        started = time.monotonic()
        with socket.create_connection(svc.address, timeout=2) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            assert sock.recv(65536) == b""
        assert time.monotonic() - started < 2
        [thread] = handler_threads
        thread.join(timeout=2)
        assert not thread.is_alive()

    def test_a_stalled_body_gets_408_and_leaves_no_blob(self, svc, user_token,
                                                        handler_threads):
        headers = {"Authorization": f"Bearer {user_token}", "Content-Length": "10"}
        with socket.create_connection(svc.address, timeout=2) as sock:
            sock.sendall(post_request(svc.address, headers, b"hello"))
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 408 Request Timeout"
        assert b"Connection: close" in lines
        assert json.loads(body) == {"error": "request timeout"}
        assert svc.core.records.list_all()[0] == []
        assert sorted(p.name for p in svc.core.vault_dir.iterdir()) == [".htaccess", "index.html"]


class TestTableReplies:
    """Failures that once dropped the connection get their row of the table."""

    def test_stored_empty_username_is_unauthenticated(self, svc):
        for username in ("", "a\x00b"):
            token_id, plaintext = svc.core.tokens.create_token("alice")
            entry = svc.journal.get("token:" + token_id)
            svc.journal.put("token:" + token_id, {**entry, "username": username})
            got = requests.get(f"{svc.base_url}/documents", headers=auth(plaintext))
            assert got.status_code == 401
            assert got.json() == {"error": "authentication required"}

    def test_write_after_stop_is_a_500(self, svc, user_token):
        doc = upload(svc, user_token, "a.txt", b"plain text").json()
        with socket.create_connection(svc.address, timeout=3) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
            svc.stop()  # the open connection outlives the store
            sock.sendall((f"DELETE /documents/{doc['doc_id']} HTTP/1.1\r\nHost: x\r\n"
                          f"Authorization: Bearer {user_token}\r\n\r\n").encode())
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        assert raw.startswith(b"HTTP/1.1 500 ")
        assert raw.endswith(b'{"error": "internal error"}')


class TestUploadFailures:
    """Only a short body is the client's fault.  A failing disk or store is
    a 500 that closes the connection, and no reply carries exception text,
    which can name a vault path."""

    @pytest.mark.parametrize("failure,status,message", [
        ("short-body", "400 Bad Request", "truncated request body"),
        ("enospc", "500 Internal Server Error", "internal error"),
        ("storage", "500 Internal Server Error", "internal error"),
    ])
    def test_reply_and_nothing_stored(self, svc, user_token, monkeypatch,
                                      failure, status, message):
        vault = str(svc.core.vault_dir)

        def disk_full(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), vault)

        def store_fails(record):
            raise StorageFailure(f"cannot append for {vault}")

        if failure == "enospc":
            monkeypatch.setattr(os, "fsync", disk_full)
        elif failure == "storage":
            monkeypatch.setattr(svc.core.records, "put_record", store_fails)
        body = b"hello" if failure == "short-body" else b"0123456789"
        headers = {"Authorization": f"Bearer {user_token}", "Content-Length": "10"}
        raw = raw_exchange(svc, post_request(svc.address, headers, body), half_close=True)
        head, _, reply = raw.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == f"HTTP/1.1 {status}".encode()
        assert b"Connection: close" in lines
        assert json.loads(reply) == {"error": message}
        assert svc.core.records.list_all()[0] == []
        assert sorted(p.name for p in svc.core.vault_dir.iterdir()) == [".htaccess", "index.html"]


class TestNameAllocation:
    """A burst of one (owner, extension) takes the slots now, now+1, ... for
    the derivation, while each record's upload_timestamp stays the clock."""

    def test_a_burst_keeps_the_clock_and_distinct_names(self, core):
        alice = Principal("alice", Role.USER)
        before = int(time.time())
        burst = [core.upload(alice, f"{i}.pdf", io.BytesIO(b"x"), 1) for i in range(50)]
        after = int(time.time())
        assert all(before <= r.upload_timestamp <= after for r in burst)
        assert len({r.opaque_name for r in burst}) == 50
        assert [r.slot for r in burst] == list(range(burst[0].slot, burst[0].slot + 50))
        assert all("slot" not in json.loads(r.public_row) for r in burst)

    def test_burst_then_restart_derives_one_name(self, core, vault_config, monkeypatch):
        """The high-water slot of an (owner, extension) is rebuilt from the
        store after a restart, so the next upload does not retry through
        the slots the burst took."""
        alice = Principal("alice", Role.USER)
        for i in range(40):
            core.upload(alice, f"{i}.pdf", io.BytesIO(b"x"), 1, now=1000)
        derived = []
        derive = service.derive_opaque_name

        def counting(username, timestamp, extension, key):
            derived.append(timestamp)
            return derive(username, timestamp, extension, key)

        monkeypatch.setattr(service, "derive_opaque_name", counting)
        with JournalStore(vault_config.store_path) as journal:
            reopened = VaultCore(vault_config, core.key, journal)
            try:
                late = reopened.upload(alice, "late.pdf", io.BytesIO(b"y"), 1, now=1000)
                other_ext = reopened.upload(alice, "notes.txt", io.BytesIO(b"z"), 1, now=1000)
            finally:
                reopened.close()
        assert late.slot == 1040
        assert late.upload_timestamp == 1000
        assert other_ext.slot == 1000  # the .pdf records do not hold .txt slots
        assert derived == [1040, 1000]

    def test_a_deleted_record_keeps_its_slot(self, core):
        alice = Principal("alice", Role.USER)
        burst = [core.upload(alice, f"{i}.pdf", io.BytesIO(b"x"), 1, now=1000) for i in range(3)]
        assert [r.slot for r in burst] == [1000, 1001, 1002]
        core.delete_document(alice, burst[-1].doc_id)
        after = core.upload(alice, "next.pdf", io.BytesIO(b"y"), 1, now=1000)
        assert after.slot == 1003

    def test_a_record_deleted_before_any_upload_keeps_its_slot(self, core, vault_config):
        """The slot is rebuilt from the records live when the store opens, so
        a delete before the process's first upload does not lower it."""
        alice = Principal("alice", Role.USER)
        burst = [core.upload(alice, f"{i}.pdf", io.BytesIO(b"x"), 1, now=1000) for i in range(3)]
        with JournalStore(vault_config.store_path) as journal:
            reopened = VaultCore(vault_config, core.key, journal)
            try:
                reopened.delete_document(alice, burst[-1].doc_id)
                after = reopened.upload(alice, "next.pdf", io.BytesIO(b"y"), 1, now=1000)
            finally:
                reopened.close()
        assert after.slot == 1003

    def test_a_record_without_a_slot_reads_its_timestamp(self, core, vault_config):
        """A record stored before the slot had a field of its own derived its
        name from its upload_timestamp."""
        alice = Principal("alice", Role.USER)
        old = core.upload(alice, "old.pdf", io.BytesIO(b"x"), 1, now=1000)
        value = core.journal.get("doc:" + old.doc_id)
        core.journal.put("doc:" + old.doc_id, {
            k: v for k, v in value.items() if k != "slot"} | {"upload_timestamp": 1005})
        with JournalStore(vault_config.store_path) as journal:
            reopened = VaultCore(vault_config, core.key, journal)
            try:
                assert reopened.records.get_by_id(old.doc_id).slot == 1005
                after = reopened.upload(alice, "next.pdf", io.BytesIO(b"y"), 1, now=1000)
            finally:
                reopened.close()
        assert after.slot == 1006

    def test_cross_user_clash_retries_and_keeps_the_first(self, core):
        """The derivation input has no separator, so ("alice1", 23) and
        ("alice", 123) name the same blob; the second upload retries."""
        first = core.upload(Principal("alice1", Role.USER), "a.pdf", io.BytesIO(b"first"), 5,
                            now=23)
        assert derive_opaque_name("alice", 123, "pdf", core.key.octets) == first.opaque_name
        blob = core.vault_dir / first.opaque_name
        inode, stored = blob.stat().st_ino, json.dumps(core.journal.get("doc:" + first.doc_id))

        second = core.upload(Principal("alice", Role.USER), "b.pdf", io.BytesIO(b"second"), 6,
                             now=123)
        assert second.opaque_name != first.opaque_name
        assert second.slot == 124
        assert blob.read_bytes() == b"first"
        assert blob.stat().st_ino == inode
        assert json.dumps(core.journal.get("doc:" + first.doc_id)) == stored
        assert core.records.get_by_id(first.doc_id) == first


class TestNameClaim:
    """An upload claims its storage name by creating the blob there with
    O_EXCL, so whatever already holds the name, made by this process or by
    another, sends it on to the next slot and is left as it was."""

    def test_two_cores_on_one_journal_take_distinct_names(self, core, vault_config,
                                                          monkeypatch):
        # A core that probes a name with os.access before it takes it waits
        # here until the other core has probed it too; one that claims the
        # name by creating the blob never calls os.access.
        barrier = threading.Barrier(2, timeout=2)
        access = os.access

        def probe_then_wait(*args, **kwargs):
            found = access(*args, **kwargs)
            with suppress(threading.BrokenBarrierError):
                barrier.wait()
            return found

        monkeypatch.setattr(os, "access", probe_then_wait)
        alice, records = Principal("alice", Role.USER), {}
        with JournalStore(vault_config.store_path) as journal:
            other = VaultCore(vault_config, core.key, journal)
            bodies = {core: b"%PDF from the first core", other: b"%PDF from the second core"}

            def upload_with(c):
                records[c] = c.upload(alice, "a.pdf", io.BytesIO(bodies[c]), len(bodies[c]),
                                      now=1000)

            threads = [threading.Thread(target=upload_with, args=(c,)) for c in bodies]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            other.close()
        assert len({r.opaque_name for r in records.values()}) == 2
        for c, record in records.items():
            assert (core.vault_dir / record.opaque_name).read_bytes() == bodies[c]
        with ReadOnlyJournal(vault_config.store_path) as journal:
            assert check_consistency(MetadataStore(journal), core.vault_dir) == []

    def test_symlink_and_fifo_at_the_next_names_are_skipped(self, core, tmp_path):
        outside = tmp_path / "outside.pdf"
        link, fifo = (core.vault_dir / derive_opaque_name("alice", ts, "pdf", core.key.octets)
                      for ts in (1000, 1001))
        link.symlink_to(outside)
        os.mkfifo(fifo)
        record = core.upload(Principal("alice", Role.USER), "a.pdf", io.BytesIO(b"body"), 4,
                             now=1000)
        assert record.slot == 1002
        assert (core.vault_dir / record.opaque_name).read_bytes() == b"body"
        assert os.readlink(link) == str(outside) and not outside.exists()
        assert stat.S_ISFIFO(fifo.lstat().st_mode)


def walk_listing(svc, token) -> list[dict]:
    docs, cursor = [], None
    while True:
        page = requests.get(f"{svc.base_url}/documents", params={"cursor": cursor},
                            headers=auth(token)).json()
        docs += page["documents"]
        if (cursor := page["next_cursor"]) is None:
            return docs


def disposition_name(value: str) -> str:
    """The file name a Content-Disposition value carries (RFC 6266)."""
    if "filename*=UTF-8''" in value:
        return unquote(value.split("filename*=UTF-8''", 1)[1], errors="strict")
    assert value.startswith('attachment; filename="') and value.endswith('"')
    return value[len('attachment; filename="'):-1]


class TestUnicodeNames:
    def test_x_filename_carries_utf8(self, svc, user_token):
        body = b"%PDF-1.4 body"
        headers = {**auth(user_token), "X-Filename": "é.pdf", "Content-Length": len(body),
                   "Connection": "close"}
        reply = raw_exchange(svc, post_request(svc.address, headers, body, "/documents"))
        assert reply.startswith(b"HTTP/1.1 201 ")
        doc = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert doc["original_filename"] == "é.pdf"
        assert [d["original_filename"] for d in walk_listing(svc, user_token)] == ["é.pdf"]

    def test_x_filename_not_utf8_is_refused(self, svc, user_token):
        request = post_request(svc.address, {**auth(user_token), "Content-Length": 1},
                               b"x", "/documents")
        request = request.replace(b"\r\n\r\n", b"\r\nX-Filename: \xe9.pdf\r\n\r\n", 1)
        reply = raw_exchange(svc, request)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b'{"error": "invalid filename"}')
        assert walk_listing(svc, user_token) == []

    @pytest.mark.parametrize("quoted", ["%FF.pdf", "%ED%A0%80.pdf"])
    def test_query_filename_not_utf8_is_refused(self, svc, user_token, quoted):
        reply = raw_exchange(svc, post_request(
            svc.address, {**auth(user_token), "Content-Length": 1}, b"x",
            f"/documents?filename={quoted}"))
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert reply.endswith(b'{"error": "invalid filename"}')
        assert walk_listing(svc, user_token) == []

    def test_non_latin1_name_downloads_whole(self, svc, user_token):
        doc = upload(svc, user_token, "报告€.pdf", b"%PDF-1.4 body").json()
        got = requests.get(f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token))
        assert got.status_code == 200
        assert got.content == b"%PDF-1.4 body"
        assert disposition_name(got.headers["Content-Disposition"]) == "报告€.pdf"

    @given(name=st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                                  st.sampled_from('/\\"\x00\x85\u0301e')),
                        min_size=1, max_size=24))
    @example(name="e\u0301.pdf")  # stored as its NFC form
    @example(name="x" * 255)
    @example(name="é" * 128)  # 256 UTF-8 bytes
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_name_round_trips(self, svc, user_token, name):
        """Every upload gets 201 or 400; a stored name comes back, as its NFC
        form, in the upload reply, the listing and the download."""
        body = name.encode("utf-8") + b"|body"
        resp = upload(svc, user_token, name, body)
        assert resp.status_code in (400, 201)
        if resp.status_code == 400:
            assert resp.json() == {"error": "invalid filename"}
            return
        stored = unicodedata.normalize("NFC", name)
        doc = resp.json()
        assert doc["original_filename"] == stored
        assert doc in walk_listing(svc, user_token)
        got = requests.get(f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token))
        assert got.status_code == 200
        assert got.content == body
        assert disposition_name(got.headers["Content-Disposition"]) == stored


def open_blob_fds(vault_dir, timeout: float = 3.0) -> int:
    """This process's open fds on files in the vault directory, once they
    are down to none or ``timeout`` has passed: a handler thread may still
    be ending the last reply."""
    vault = os.path.realpath(vault_dir)
    deadline = time.monotonic() + timeout
    while True:
        count = 0
        for fd in os.listdir("/proc/self/fd"):
            try:
                count += os.path.dirname(os.readlink(f"/proc/self/fd/{fd}")) == vault
            except OSError:  # the listing's own fd, closed by now
                pass
        if count == 0 or time.monotonic() > deadline:
            return count
        time.sleep(0.02)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestBlobFds:
    """Each download's blob fd is closed however the reply ends."""

    def test_fifty_downloads_leave_no_blob_open(self, svc, user_token, monkeypatch):
        small = upload(svc, user_token, "small.pdf", b"%PDF small").json()
        big_body = bytes(range(256)) * 8192  # 2 MiB, many chunks
        big = upload(svc, user_token, "big.bin", big_body).json()

        for i in range(48):
            headers = {**auth(user_token), "Range": "bytes=1-4"} if i % 2 else auth(user_token)
            got = requests.get(f"{svc.base_url}/documents/{small['doc_id']}", headers=headers)
            assert got.status_code in (200, 206)

        # a client that goes away mid-body: a small receive window stalls
        # the stream, then the connection is reset
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(2)
            sock.connect(svc.address)
            sock.sendall((f"GET /documents/{big['doc_id']} HTTP/1.1\r\nHost: x\r\n"
                          f"Authorization: Bearer {user_token}\r\n\r\n").encode())
            assert sock.recv(1024).startswith(b"HTTP/1.1 200 ")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        # a result that is prepared but never streamed: the header write fails
        with monkeypatch.context() as m:
            def failing_end_headers(handler):
                raise ConnectionResetError("client went away")

            m.setattr(VaultRequestHandler, "end_headers", failing_end_headers)
            raw_exchange(svc, (f"GET /documents/{small['doc_id']} HTTP/1.1\r\nHost: x\r\n"
                               f"Authorization: Bearer {user_token}\r\n\r\n").encode())

        assert open_blob_fds(svc.core.vault_dir) == 0


def handler_threads_done(timeout: float = 3.0) -> bool:
    """Whether every connection thread has ended within ``timeout``."""
    deadline = time.monotonic() + timeout
    while any("process_request_thread" in t.name for t in threading.enumerate()):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestClientGoesAway:
    """A client that resets its connection mid-reply ends it quietly."""

    def test_reset_mid_download_prints_nothing(self, svc, user_token, capfd):
        big = upload(svc, user_token, "big.bin", bytes(range(256)) * 8192).json()
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(2)
            sock.connect(svc.address)
            sock.sendall((f"GET /documents/{big['doc_id']} HTTP/1.1\r\nHost: x\r\n"
                          f"Authorization: Bearer {user_token}\r\n\r\n").encode())
            assert sock.recv(1024).startswith(b"HTTP/1.1 200 ")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert handler_threads_done()
        assert requests.get(f"{svc.base_url}/healthz").status_code == 200
        assert "Traceback" not in capfd.readouterr().err

    def test_reset_before_a_small_reply_prints_nothing(self, svc, monkeypatch, capfd):
        # the whole reply sits in wfile's buffer, so the flush after the verb
        # and the close after the connection are what meet the reset
        route = VaultRequestHandler._route

        def slow_route(handler, length):
            time.sleep(0.2)
            return route(handler, length)

        monkeypatch.setattr(VaultRequestHandler, "_route", slow_route)
        with socket.create_connection(svc.address) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        assert handler_threads_done()
        assert "Traceback" not in capfd.readouterr().err


class TestMultiChunkDownload:
    """A body of more than one chunk is sent from the blob's fd after the
    headers; the blob can change between the prepare and the send."""

    content = bytes(range(256)) * 8192  # 2 MiB, many chunks

    @pytest.fixture
    def after_prepare(self, svc, monkeypatch):
        """Run ``action(blob_path)`` on each blob as soon as its download is prepared."""
        actions = []
        prepare = delivery.stream_document

        def prepare_then_act(record, *args, **kw):
            result = prepare(record, *args, **kw)
            for action in actions:
                action(svc.core.vault_dir / record.opaque_name)
            return result

        monkeypatch.setattr(delivery, "stream_document", prepare_then_act)
        return actions

    def test_range_at_an_offset_is_byte_exact(self, svc, user_token):
        doc = upload(svc, user_token, "big.bin", self.content).json()
        got = requests.get(f"{svc.base_url}/documents/{doc['doc_id']}",
                           headers={**auth(user_token), "Range": "bytes=70000-1500000"})
        assert got.status_code == 206
        assert got.headers["Content-Range"] == f"bytes 70000-1500000/{len(self.content)}"
        assert got.content == self.content[70000:1500001]

    def test_deleted_after_prepare_arrives_whole(self, svc, user_token, after_prepare):
        doc = upload(svc, user_token, "big.bin", self.content).json()
        after_prepare.append(os.unlink)
        got = requests.get(f"{svc.base_url}/documents/{doc['doc_id']}", headers=auth(user_token))
        assert got.status_code == 200
        assert got.content == self.content

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_truncated_after_prepare_ends_short_and_closed(self, svc, user_token,
                                                           after_prepare):
        doc = upload(svc, user_token, "big.bin", self.content).json()
        after_prepare.append(lambda blob: os.truncate(blob, 100_000))
        with socket.create_connection(svc.address, timeout=3) as sock:
            sock.sendall((f"GET /documents/{doc['doc_id']} HTTP/1.1\r\nHost: x\r\n"
                          f"Authorization: Bearer {user_token}\r\n\r\n").encode())
            raw = b""
            while chunk := sock.recv(65536):  # a hang raises TimeoutError
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert f"Content-Length: {len(self.content)}".encode() in head
        assert body == self.content[:100_000]
        assert open_blob_fds(svc.core.vault_dir) == 0
        assert requests.get(f"{svc.base_url}/healthz").status_code == 200


class TestHashBesideTheWrite:
    """A body of more than one chunk is hashed in a thread of its own, fed
    the chunks in order; that thread ends with its upload."""

    def test_multi_chunk_body_is_hashed_in_order(self, svc, user_token, monkeypatch, capsys):
        body = os.urandom(3 * delivery.CHUNK_SIZE + 1)
        resp = upload(svc, user_token, "big.bin", body)
        assert resp.status_code == 201
        record = svc.core.records.get_by_id(resp.json()["doc_id"])
        assert record.checksum == hashlib.sha256(body).hexdigest()
        assert fsck(svc.core.config, monkeypatch, capsys) == "clean\n"

    def test_multi_chunk_body_cut_short_leaves_no_blob_and_no_thread(self, svc, user_token):
        assert handler_threads_done()  # an earlier connection's thread may still be ending
        before = threading.active_count()
        headers = {"Authorization": f"Bearer {user_token}",
                   "Content-Length": str(3 * delivery.CHUNK_SIZE + 1)}
        body = b"x" * (2 * delivery.CHUNK_SIZE + 100)
        raw = raw_exchange(svc, post_request(svc.address, headers, body), half_close=True)
        head, _, reply = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(reply) == {"error": "truncated request body"}
        assert sorted(p.name for p in svc.core.vault_dir.iterdir()) == [".htaccess", "index.html"]
        assert handler_threads_done()
        assert threading.active_count() == before

    def test_only_a_body_over_one_chunk_starts_a_thread(self, core, monkeypatch):
        started = []

        class RecordingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", RecordingThread)
        alice = Principal("alice", Role.USER)
        for size, threads in ((delivery.CHUNK_SIZE, 0), (delivery.CHUNK_SIZE + 1, 1)):
            body = os.urandom(size)
            record = core.upload(alice, "a.bin", io.BytesIO(body), size)
            assert record.checksum == hashlib.sha256(body).hexdigest()
            assert len(started) == threads
        assert not started[0].is_alive()

    def test_concurrent_uploads_each_hash_their_own_body(self, core):
        # more uploads than cores, with threads switched often
        bodies = [os.urandom(4 * delivery.CHUNK_SIZE + i) for i in range(6)]
        records = [None] * len(bodies)

        def put(i):
            records[i] = core.upload(Principal("alice", Role.USER), f"{i}.bin",
                                     io.BytesIO(bodies[i]), len(bodies[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=put, args=(i,)) for i in range(len(bodies))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [r.checksum for r in records] == [hashlib.sha256(b).hexdigest() for b in bodies]


def fsck(config, monkeypatch, capsys) -> str:
    """What ``vault fsck`` prints for the vault of ``config``; it must exit 0."""
    from docvault.cli import main

    for name, value in (("VAULT_WEBROOT", config.webroot), ("VAULT_DIR", config.vault_dir),
                        ("VAULT_POLICY", config.policy.value),
                        ("VAULT_STORE", config.store_path)):
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert main(["fsck"]) == 0
    return capsys.readouterr().out


class TestWritebackWindows:
    """Each full ``WRITEBACK_WINDOW`` of a body but its last starts its
    writeback once written, before the blob's fsync, which still makes the
    blob durable."""

    WINDOW = service.WRITEBACK_WINDOW
    SIZE = 2 * WINDOW + delivery.CHUNK_SIZE

    @pytest.fixture
    def vault_config(self, tmp_path):
        return make_config(tmp_path, max_upload_bytes=self.SIZE)

    @pytest.fixture
    def calls(self, monkeypatch) -> list:
        """Each writeback range started, and "fsync" for each fsync, in order."""
        calls, fsync, start = [], os.fsync, service._start_writeback

        def recording_fsync(fd):
            calls.append("fsync")
            fsync(fd)

        def recording_start(fd, offset, nbytes):
            calls.append((offset, nbytes))
            start(fd, offset, nbytes)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(service, "_start_writeback", recording_start)
        return calls

    def test_each_full_window_but_the_last_before_the_fsyncs(self, core, calls, monkeypatch,
                                                             capsys):
        body = os.urandom(self.SIZE)
        record = core.upload(Principal("alice", Role.USER), "big.bin", io.BytesIO(body),
                             len(body))
        # then the fsyncs of the blob, the vault directory and the journal
        assert calls == [(0, self.WINDOW), (self.WINDOW, self.WINDOW)] + ["fsync"] * 3
        assert record.checksum == hashlib.sha256(body).hexdigest()
        assert fsck(core.config, monkeypatch, capsys) == "clean\n"

    @pytest.mark.parametrize("size", [delivery.CHUNK_SIZE + 1, WINDOW])
    def test_a_body_of_one_window_starts_none(self, core, calls, size):
        core.upload(Principal("alice", Role.USER), "a.bin", io.BytesIO(b"x" * size), size)
        assert calls == ["fsync"] * 3

    def test_without_the_call_a_body_is_stored_the_same(self, core, monkeypatch):
        class NoSyncFileRange:  # a libc that lacks the symbol
            pass

        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: NoSyncFileRange())
        start = service._writeback_call()
        assert start(-1, 0, self.WINDOW) is None
        monkeypatch.setattr(service, "_start_writeback", start)
        body = os.urandom(self.SIZE)
        record = core.upload(Principal("alice", Role.USER), "big.bin", io.BytesIO(body),
                             len(body))
        assert record.checksum == hashlib.sha256(body).hexdigest()
        assert (core.vault_dir / record.opaque_name).read_bytes() == body

    def test_a_multi_window_body_cut_short_leaves_no_blob_and_no_thread(self, svc, user_token,
                                                                         calls):
        assert handler_threads_done()
        before = threading.active_count()
        headers = {"Authorization": f"Bearer {user_token}", "Content-Length": str(self.SIZE)}
        body = b"x" * (self.WINDOW + delivery.CHUNK_SIZE)
        raw = raw_exchange(svc, post_request(svc.address, headers, body), half_close=True)
        head, _, reply = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(reply) == {"error": "truncated request body"}
        assert calls == [(0, self.WINDOW)]
        assert sorted(p.name for p in svc.core.vault_dir.iterdir()) == [".htaccess", "index.html"]
        assert handler_threads_done()
        assert threading.active_count() == before


class TestDurableEntries:
    """An upload fsyncs its blob, then the vault directory that holds the
    blob's new entry, and only then appends the record to the journal."""

    @pytest.mark.parametrize("size", [10, 2 * delivery.CHUNK_SIZE,
                                      service.WRITEBACK_WINDOW + delivery.CHUNK_SIZE])
    def test_blob_then_directory_then_journal(self, core, fsynced, size):
        record = core.upload(Principal("alice", Role.USER), "a.bin",
                             io.BytesIO(b"x" * size), size)
        blob = core.vault_dir / record.opaque_name
        assert fsynced == [inode(blob), inode(core.vault_dir), inode(core.config.store_path)]
