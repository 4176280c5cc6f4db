import dataclasses
import hashlib
import os
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docvault.access import Action, Principal, Role, authorize
from docvault.delivery import (
    CHUNK_SIZE,
    build_headers,
    detect_media_type,
    parse_range_header,
    stream_document,
)
from docvault.errors import BlobMissing, RangeNotSatisfiable

from test_metadata import make_record


_vault_fds: list[int] = []


@pytest.fixture(autouse=True)
def _close_vault_fds():
    yield
    while _vault_fds:
        os.close(_vault_fds.pop())


def stored(tmp_path, content: bytes, **kw):
    """A record, an fd of the vault directory holding its blob, and a read proof."""
    vault = tmp_path / "vault"
    vault.mkdir(exist_ok=True)
    record = make_record(
        size_bytes=len(content),
        checksum=hashlib.sha256(content).hexdigest(),
        **kw,
    )
    (vault / record.opaque_name.render()).write_bytes(content)
    proof = authorize(Principal(record.owner, Role.USER), record, Action.READ)
    _vault_fds.append(os.open(vault, os.O_RDONLY | os.O_DIRECTORY))
    return record, _vault_fds[-1], proof


class TestHeaders:
    def test_pdf_recipe(self):
        record = make_record(media_type="application/pdf", original_filename="yourFile.pdf")
        assert build_headers(record, 1024, None) == [
            ("Content-Type", "application/pdf"),
            ("Content-Length", "1024"),
            ("Accept-Ranges", "bytes"),
            ("Content-Disposition", 'attachment; filename="yourFile.pdf"'),
        ]

    def test_empty_blob(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"")
        assert ("Content-Length", "0") in stream_document(record, vault, proof).headers

    def test_non_ascii_name_gets_rfc8187_form(self):
        record = make_record(original_filename="报告€.pdf")
        assert dict(build_headers(record, 10, None))["Content-Disposition"] == (
            "attachment; filename=\"___.pdf\"; "
            "filename*=UTF-8''%E6%8A%A5%E5%91%8A%E2%82%AC.pdf"
        )

    def test_control_character_is_encoded(self):
        record = make_record(original_filename="a\tb.pdf")
        assert dict(build_headers(record, 10, None))["Content-Disposition"] == (
            "attachment; filename=\"a_b.pdf\"; filename*=UTF-8''a%09b.pdf"
        )

    def test_sanitized_download_name(self):
        # A quote reaches the client: "_" in the fallback, exact in filename*.
        record = make_record(original_filename='a"b.pdf')
        headers = dict(build_headers(record, 10, None))
        assert headers["Content-Disposition"] == (
            "attachment; filename=\"a_b.pdf\"; filename*=UTF-8''a%22b.pdf"
        )

    @pytest.mark.parametrize(
        "raw,fallback,encoded",
        [
            ('a"b\r\n.pdf', "a_b__.pdf", "a%22b%0D%0A.pdf"),
            ("../../etc/passwd", ".._.._etc_passwd", "..%2F..%2Fetc%2Fpasswd"),
            ("dir\\name.pdf", "dir_name.pdf", "dir%5Cname.pdf"),
        ],
    )
    def test_sanitize(self, raw, fallback, encoded):
        record = make_record(original_filename=raw)
        assert dict(build_headers(record, 10, None))["Content-Disposition"] == (
            f"attachment; filename=\"{fallback}\"; filename*=UTF-8''{encoded}"
        )


class TestMediaType:
    def test_pdf_extension_and_magic(self):
        assert detect_media_type("a.pdf", b"%PDF-1.4") == "application/pdf"

    def test_magic_without_extension(self):
        assert detect_media_type("noext", b"%PDF-1.4") == "application/pdf"
        assert detect_media_type("noext", b"\x89PNG\r\n\x1a\nrest") == "image/png"
        assert detect_media_type("noext", b"PK\x03\x04zip") == "application/zip"

    def test_unknown_falls_back(self):
        assert detect_media_type("mystery.qqq", b"\x00\x01\x02") == "application/octet-stream"

    def test_txt(self):
        assert detect_media_type("a.txt") == "text/plain"

    def test_text_sniff(self):
        assert detect_media_type("noext.qqq", b"just plain words\n") == "text/plain"


class TestStreaming:
    def test_full_roundtrip(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"hello")
        result = stream_document(record, vault, proof)
        assert result.status == 200
        assert b"".join(result.chunks()) == b"hello"
        assert dict(result.headers)["Content-Length"] == "5"

    def test_range(self, tmp_path):
        content = b"01234"
        record, vault, proof = stored(tmp_path, content)
        result = stream_document(record, vault, proof, "bytes=1-3")
        body = b"".join(result.chunks())
        assert result.status == 206
        # oracle: independent slice of the source bytes
        assert body == content[1:4] == b"123"
        assert dict(result.headers)["Content-Length"] == "3"
        assert result.headers[-1] == ("Content-Range", "bytes 1-3/5")

    def test_range_end_clipped(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"01234")
        result = stream_document(record, vault, proof, "bytes=3-99")
        assert b"".join(result.chunks()) == b"34"
        assert dict(result.headers)["Content-Range"] == "bytes 3-4/5"

    def test_range_past_end(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"01234")
        with pytest.raises(RangeNotSatisfiable):
            stream_document(record, vault, proof, "bytes=5-9")

    def test_range_is_decided_against_the_open_blob(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"0123456789")
        record = dataclasses.replace(record, size_bytes=5)  # a stale size
        result = stream_document(record, vault, proof, "bytes=7-")
        assert result.status == 206
        assert dict(result.headers)["Content-Range"] == "bytes 7-9/10"
        assert b"".join(result.chunks()) == b"789"
        result.close()
        with pytest.raises(RangeNotSatisfiable):
            stream_document(record, vault, proof, "bytes=10-")

    def test_blob_missing(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"data")
        os.unlink(record.opaque_name.render(), dir_fd=vault)
        with pytest.raises(BlobMissing):
            stream_document(record, vault, proof)

    def test_delete_after_prepare_streams_whole_body(self, tmp_path):
        content = bytes(range(256)) * 1024
        record, vault, proof = stored(tmp_path, content)
        result = stream_document(record, vault, proof)
        os.unlink(record.opaque_name.render(), dir_fd=vault)
        assert b"".join(result.chunks()) == content

    def test_truncated_mid_stream_raises(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"x" * (3 * CHUNK_SIZE))
        result = stream_document(record, vault, proof)
        chunks = result.chunks()
        assert len(next(chunks)) == CHUNK_SIZE
        os.truncate(tmp_path / "vault" / record.opaque_name.render(), CHUNK_SIZE + 10)
        assert len(next(chunks)) == 10
        with pytest.raises(BlobMissing):
            next(chunks)

    def test_symlink_under_opaque_name_is_missing(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"data")
        name = record.opaque_name.render()
        outside = tmp_path / "outside.pdf"
        outside.write_bytes(b"data")
        os.unlink(name, dir_fd=vault)
        os.symlink(outside, name, dir_fd=vault)
        with pytest.raises(BlobMissing):
            stream_document(record, vault, proof)

    def test_directory_under_opaque_name_is_missing(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"data")
        name = record.opaque_name.render()
        os.unlink(name, dir_fd=vault)
        os.mkdir(name, dir_fd=vault)
        with pytest.raises(BlobMissing):
            stream_document(record, vault, proof)

    def test_fifo_under_opaque_name_is_missing(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"data")
        name = record.opaque_name.render()
        os.unlink(name, dir_fd=vault)
        os.mkfifo(tmp_path / "vault" / name)
        raised = []

        def download():
            try:
                stream_document(record, vault, proof)
            except BlobMissing:
                raised.append(BlobMissing)

        # an open that waits for a FIFO's writer would hold the thread forever
        thread = threading.Thread(target=download, daemon=True)
        thread.start()
        thread.join(timeout=3)
        assert not thread.is_alive()
        assert raised == [BlobMissing]

    def test_requires_proof(self, tmp_path):
        record, vault, _ = stored(tmp_path, b"data")
        with pytest.raises(PermissionError):
            stream_document(record, vault, None)

    def test_proof_for_other_document_rejected(self, tmp_path):
        record, vault, _ = stored(tmp_path, b"data")
        other = make_record(99)
        other_proof = authorize(Principal(other.owner, Role.USER), other, Action.READ)
        with pytest.raises(PermissionError):
            stream_document(record, vault, other_proof)

    def test_blob_unmodified_by_read(self, tmp_path):
        record, vault, proof = stored(tmp_path, b"read-only data")
        blob = tmp_path / "vault" / record.opaque_name.render()
        before = blob.stat().st_mtime_ns
        list(stream_document(record, vault, proof).chunks())
        assert blob.read_bytes() == b"read-only data"
        assert blob.stat().st_mtime_ns == before

    def test_bounded_memory_chunks(self, tmp_path):
        blob = bytes(range(256)) * 4096  # 1 MiB
        record, vault, proof = stored(tmp_path, blob)
        result = stream_document(record, vault, proof)
        sizes = [len(c) for c in result.chunks()]
        assert len(sizes) > 1 and max(sizes) <= CHUNK_SIZE
        assert sum(sizes) == len(blob)

    @given(st.binary(min_size=0, max_size=200_000))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, content):
        tmp = tmp_path_factory.mktemp("blobs")
        record, vault, proof = stored(tmp, content)
        result = stream_document(record, vault, proof)
        received = b"".join(result.chunks())
        assert received == content
        assert dict(result.headers)["Content-Length"] == str(len(received))


def sent_over_socketpair(result) -> bytes:
    """What ``result.sendfile`` puts on one end of a socketpair, read at the
    other end while it sends."""
    ours, theirs = socket.socketpair()
    received = bytearray()

    def read():
        while data := theirs.recv(1 << 16):
            received.extend(data)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        result.sendfile(ours)
    finally:
        ours.close()
        reader.join(timeout=5)
        theirs.close()
    return bytes(received)


def assert_closed(fd: int) -> None:
    with pytest.raises(OSError):
        os.fstat(fd)


class TestSendfile:
    """The body of more than one chunk goes from the blob's fd to the socket."""

    content = bytes(range(256)) * 8192  # 2 MiB, many chunks

    def test_whole_body(self, tmp_path):
        record, vault, proof = stored(tmp_path, self.content)
        result = stream_document(record, vault, proof)
        fd = result._fd
        assert sent_over_socketpair(result) == self.content
        os.fstat(fd)  # the holder closes it, once
        result.close()
        assert_closed(fd)
        result.close()

    def test_range_at_an_offset(self, tmp_path):
        record, vault, proof = stored(tmp_path, self.content)
        result = stream_document(record, vault, proof, "bytes=70000-1500000")
        assert result.offset == 70000 and result.length == 1430001
        assert sent_over_socketpair(result) == self.content[70000:1500001]

    def test_truncated_blob_raises_and_closes(self, tmp_path):
        record, vault, proof = stored(tmp_path, self.content)
        result = stream_document(record, vault, proof)
        fd = result._fd
        os.truncate(tmp_path / "vault" / record.opaque_name.render(), CHUNK_SIZE + 10)
        with pytest.raises(BlobMissing):
            sent_over_socketpair(result)
        result.close()
        assert_closed(fd)


class TestRangeHeaderParsing:
    @pytest.mark.parametrize(
        "value,size,expected",
        [
            (None, 100, None),
            ("bytes=0-49", 100, (0, 49)),
            ("bytes=10-", 100, (10, 99)),
            ("bytes=-10", 100, (90, 99)),
            ("bytes=0-0", 100, (0, 0)),
            ("bytes=0-10,20-30", 100, None),  # multi-range: serve full file
            ("octets=0-10", 100, None),
            ("garbage", 100, None),
            ("bytes=5-2", 100, None),
            ("bytes=1_0-1_2", 100, None),  # ASCII digits only: no int() syntax
            ("bytes=+3-5", 100, None),
            ("bytes= 3 - 5 ", 100, None),
        ],
    )
    def test_cases(self, value, size, expected):
        assert parse_range_header(value, size) == expected

    def test_start_past_end(self):
        with pytest.raises(RangeNotSatisfiable):
            parse_range_header("bytes=100-", 100)

    def test_suffix_of_empty(self):
        with pytest.raises(RangeNotSatisfiable):
            parse_range_header("bytes=-5", 0)
