"""Store builders and traffic loops of the four workloads.

Every input comes from the seed.  Stores are built before anything is
timed, through the program's own write path (``VaultCore.upload``,
``TokenStore.create_token``), so a later change of the on-disk format is
respected.  The build skips the fsync per upload and makes everything
durable in one pass at its end; the measured service keeps fsync per
journal append and per blob.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import threading
from pathlib import Path
from time import perf_counter

from client import PAGE_SIZE, Conn, Doc, Tally, check_download, check_page, listing_order
from client import not_found_signature
from docvault.access import Principal, Role
from docvault.auditor import DEFAULT_MISS_RUN, ProbeTarget, Rule, Verdict, run_audit
from docvault.config import DEFAULT_MAX_UPLOAD, ServiceConfig
from docvault.journal import JournalStore
from docvault.naming import SecretKey
from docvault.placement import PlacementPolicy, materialize_layout
from docvault.service import VaultCore

BASE_TS = 1_500_000_000  # prebuilt uploads predate any live upload
EXTENSIONS = ("pdf", "png", "txt", "bin")

SMALL_DOCS, SMALL_OWNERS = 2_000, 20
SMALL_MIN, SMALL_MAX = 1 << 10, 64 << 10
CATALOG_DOCS, CATALOG_OWNERS = 10_000, 50  # 200 documents, two pages, per owner
CATALOG_MIN, CATALOG_MAX = 64, 2 << 10
BULK_BYTES = 64 << 20
AUDIT_FILES, AUDIT_FILE_BYTES = 100, 1 << 20


@contextlib.contextmanager
def fsync_skipped():
    real = os.fsync
    os.fsync = lambda fd: None
    try:
        yield
    finally:
        os.fsync = real


class Store:
    """A vault built in the work directory, plus what the client knows of it."""

    def __init__(self, work: Path, seed: int, pool_bytes: int, policy=PlacementPolicy.DENIED_SUBDIR,
                 webroot: Path | None = None, vault_dir: Path | None = None):
        rng = random.Random(f"{seed}-pool")
        self.pool = memoryview(rng.randbytes(pool_bytes))
        self.work = work
        webroot = webroot or work / "webroot"
        webroot.mkdir(parents=True, exist_ok=True)
        self.spec = {
            "webroot": str(webroot),
            "vault_dir": str(vault_dir or webroot / "vault"),
            "policy": policy.value,
            "store": str(work / "store.journal"),
            "key_hex": hashlib.sha256(f"perfbench-{seed}".encode()).hexdigest(),
            "max_upload_bytes": DEFAULT_MAX_UPLOAD,
        }
        self.tokens: dict[str, str] = {}
        self.docs: list[Doc] = []
        config = ServiceConfig(
            bind_host="127.0.0.1", bind_port=0, webroot=self.spec["webroot"],
            vault_dir=self.spec["vault_dir"], policy=policy, key_file=None, key_env=None,
            store_path=self.spec["store"], max_upload_bytes=DEFAULT_MAX_UPLOAD,
        )
        materialize_layout(config.layout())
        self._journal = JournalStore(config.store_path)
        self._core = VaultCore(config, SecretKey(bytes.fromhex(self.spec["key_hex"])), self._journal)

    def token(self, user: str, role: Role = Role.USER) -> str:
        self.tokens[user] = self._core.tokens.create_token(user, role)[1]
        return self.tokens[user]

    def upload(self, owner: str, filename: str, offset: int, size: int) -> Doc:
        record = self._core.upload(
            Principal(owner, Role.USER), filename,
            io.BytesIO(self.pool[offset : offset + size]), size,
            now=BASE_TS + len(self.docs),
        )
        doc = Doc(record.doc_id, owner, filename, record.upload_timestamp, size, offset,
                  record.media_type)
        self.docs.append(doc)
        return doc

    def close(self) -> None:
        """Close the journal and make everything the build wrote durable in
        one pass, so that its writeback does not overlap the timed run."""
        self._journal.close()
        for dirpath, _dirs, files in os.walk(self.work):
            for name in files + ["."]:
                fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)


def build_small_docs(store: Store, rng: random.Random, count: int, owners: list[str],
                     lo: int, hi: int) -> None:
    for i in range(count):
        size = rng.randint(lo, hi)
        store.upload(owners[i % len(owners)], f"doc{i}.{rng.choice(EXTENSIONS)}",
                     rng.randrange(len(store.pool) - size), size)


# -- small-mix -----------------------------------------------------------


class SmallMix:
    connections = 2

    def __init__(self, work: Path, seed: int):
        self._build(work, seed, SMALL_DOCS, SMALL_OWNERS, SMALL_MIN, SMALL_MAX)

    def _build(self, work, seed, docs, owners, lo, hi):
        self.store = Store(work, seed, 4 * hi)
        owners = [f"user{i:03d}" for i in range(owners)]
        with fsync_skipped():
            for o in owners:
                self.store.token(o)
            self.store.token("admin", Role.ADMIN)
            build_small_docs(self.store, random.Random(f"{seed}-docs"), docs, owners, lo, hi)
        self.store.close()
        self.users = owners[: self.connections]
        # per connection: every live document it owns, and which it uploaded
        self.own = {u: [d for d in self.store.docs if d.owner == u] for u in self.users}
        self.uploaded: dict[str, list[Doc]] = {u: [] for u in self.users}
        self.rngs = {u: random.Random(f"{seed}-{u}") for u in self.users}
        self.uploads_made = {u: 0 for u in self.users}
        self.missing = {}  # the reply to a read of a missing document, per user

    def run(self, port: int, until: float, warm_until: float) -> Tally:
        tallies = [Tally() for _ in self.users]
        threads = [
            threading.Thread(target=self._loop, args=(port, u, t, until, warm_until))
            for u, t in zip(self.users, tallies)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = Tally()
        for t in tallies:
            total.merge(t)
        return total

    def _loop(self, port, user, tally: Tally, until, warm_until):
        pool, rng = self.store.pool, self.rngs[user]
        own, uploaded = self.own[user], self.uploaded[user]
        foreign = [d for d in self.store.docs if d.owner not in self.users]
        conn = Conn(port, self.store.tokens[user])
        try:
            if user not in self.missing:
                reply = conn.call("GET", "/documents/d" + "0" * 24)
                self.missing[user] = not_found_signature(conn, reply)
                tally.check(reply.status == 404, f"read of a missing document: {reply.status}")
            missing = self.missing[user]
            while (start := perf_counter()) < until:
                r = rng.random()
                if r < 0.80:
                    route = "download"
                    if rng.random() < 1 / 20:
                        doc = rng.choice(foreign)
                        reply = conn.call("GET", f"/documents/{doc.doc_id}")
                        tally.check(not_found_signature(conn, reply) == missing,
                                    f"non-owner read of {doc.doc_id}: {reply.status}")
                    else:
                        doc = rng.choice(own)
                        byte_range = None
                        if rng.random() < 1 / 10:
                            s = rng.randrange(doc.size)
                            byte_range = (s, rng.randrange(s, doc.size))
                        reply = conn.call(
                            "GET", f"/documents/{doc.doc_id}",
                            headers={"Range": "bytes=%d-%d" % byte_range} if byte_range else None,
                        )
                        tally.check(check_download(conn, reply, doc, pool, byte_range),
                                    f"download of {doc.doc_id}: {reply.status}")
                elif r < 0.90:
                    route = "list"
                    order = listing_order(own)
                    expect_cursor = order[PAGE_SIZE - 1].doc_id if len(order) > PAGE_SIZE else None
                    reply = conn.call("GET", "/documents")
                    tally.check(check_page(conn, reply, order[:PAGE_SIZE], expect_cursor),
                                f"first page of {user}: {reply.status}")
                elif r < 0.98 or not uploaded:
                    route = "upload"
                    reply = self._upload(conn, tally, user, rng, SMALL_MIN, SMALL_MAX)
                else:
                    route = "delete"
                    doc = uploaded.pop(rng.randrange(len(uploaded)))
                    own.remove(doc)
                    reply = conn.call("DELETE", f"/documents/{doc.doc_id}")
                    tally.check(reply.status == 200 and conn.json(reply) == {"deleted": doc.doc_id},
                                f"delete of {doc.doc_id}: {reply.status}")
                tally.sample(route, start, reply.seconds, warm_until)
        finally:
            conn.close()

    def _upload(self, conn, tally, user, rng, lo, hi):
        size = rng.randint(lo, hi)
        offset = rng.randrange(len(self.store.pool) - size)
        self.uploads_made[user] += 1
        filename = f"up{self.uploads_made[user]}.{rng.choice(EXTENSIONS)}"
        reply = conn.call("POST", f"/documents?filename={filename}",
                          body=bytes(self.store.pool[offset : offset + size]))
        tally.sent_bytes += size
        meta = conn.json(reply) if reply.status == 201 else None
        ok = tally.check(
            isinstance(meta, dict) and meta.get("owner") == user
            and meta.get("original_filename") == filename and meta.get("size_bytes") == size,
            f"upload by {user}: {reply.status}",
        )
        if ok:
            doc = Doc(meta["doc_id"], user, filename, meta["upload_timestamp"], size, offset,
                      meta["media_type"])
            self.own[user].append(doc)
            self.uploaded[user].append(doc)
        return reply


# -- large-catalog -------------------------------------------------------


class LargeCatalog(SmallMix):
    """Owner A walks its listing by cursor; owner B uploads and deletes."""

    def __init__(self, work: Path, seed: int):
        self._build(work, seed, CATALOG_DOCS, CATALOG_OWNERS, CATALOG_MIN, CATALOG_MAX)
        self.walk = listing_order(self.own[self.users[0]])
        self.admin_page = listing_order(self.store.docs)[:PAGE_SIZE]

    def run(self, port: int, until: float, warm_until: float) -> Tally:
        tallies = [Tally(), Tally()]
        threads = [
            threading.Thread(target=self._walker, args=(port, tallies[0], until, warm_until)),
            threading.Thread(target=self._writer, args=(port, tallies[1], until, warm_until)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tallies[0].merge(tallies[1])
        return tallies[0]

    def _walker(self, port, tally: Tally, until, warm_until):
        user = self.users[0]
        rng, pool = self.rngs[user], self.store.pool
        conn = Conn(port, self.store.tokens[user])
        admin = "Bearer " + self.store.tokens["admin"]
        try:
            i = 0
            while (start := perf_counter()) < until:
                i += 1
                if i % 20 == 0:
                    reply = conn.call("GET", "/documents", auth=admin)
                    tally.check(check_page(conn, reply, self.admin_page, self.admin_page[-1].doc_id),
                                f"admin first page: {reply.status}")
                    tally.sample("admin_list", start, reply.seconds, warm_until)
                    continue
                cursor, pos = None, 0
                while True:
                    t = perf_counter()
                    reply = conn.call("GET", "/documents" + (f"?cursor={cursor}" if cursor else ""))
                    page = self.walk[pos : pos + PAGE_SIZE]
                    pos += len(page)
                    expect = page[-1].doc_id if pos < len(self.walk) else None
                    ok = tally.check(check_page(conn, reply, page, expect),
                                     f"walk page at {pos} of {user}: {reply.status}")
                    tally.sample("list", t, reply.seconds, warm_until)
                    if not ok or expect is None:
                        break
                    cursor = expect
                doc = rng.choice(self.walk)
                t = perf_counter()
                reply = conn.call("GET", f"/documents/{doc.doc_id}")
                tally.check(check_download(conn, reply, doc, pool),
                            f"download of {doc.doc_id}: {reply.status}")
                tally.sample("download", t, reply.seconds, warm_until)
        finally:
            conn.close()

    def _writer(self, port, tally: Tally, until, warm_until):
        user = self.users[1]
        rng = self.rngs[user]
        conn = Conn(port, self.store.tokens[user])
        try:
            while (start := perf_counter()) < until:
                reply = self._upload(conn, tally, user, rng, CATALOG_MIN, CATALOG_MAX)
                tally.sample("upload", start, reply.seconds, warm_until)
                if reply.status != 201:
                    continue
                doc = self.uploaded[user].pop()
                self.own[user].remove(doc)
                t = perf_counter()
                reply = conn.call("DELETE", f"/documents/{doc.doc_id}")
                tally.check(reply.status == 200 and conn.json(reply) == {"deleted": doc.doc_id},
                            f"delete of {doc.doc_id}: {reply.status}")
                tally.sample("delete", t, reply.seconds, warm_until)
        finally:
            conn.close()


# -- bulk-transfer -------------------------------------------------------


class BulkTransfer:
    """One owner loops a 64 MiB upload, three full downloads and a delete.

    Three downloads per upload give the read path as many samples as the
    write path has time, and keep the percentiles away from the boundary
    between the two: p50 falls among the downloads, p90 among the uploads.
    The store holds one other 64 MiB document, so that fsck has a blob to
    checksum.
    """

    downloads = 3

    def __init__(self, work: Path, seed: int):
        self.store = Store(work, seed, BULK_BYTES)
        with fsync_skipped():
            self.token = self.store.token("bulk")
            self.store.upload("bulk", "resident.bin", 0, BULK_BYTES)
        self.store.close()
        self.count = 0

    def run(self, port: int, until: float, warm_until: float) -> Tally:
        tally = Tally()
        pool = self.store.pool
        conn = Conn(port, self.token, BULK_BYTES)
        try:
            while (start := perf_counter()) < until:
                self.count += 1
                filename = f"bulk{self.count}.bin"
                up = conn.call("POST", f"/documents?filename={filename}", body=pool)
                tally.sample("upload", start, up.seconds, warm_until)
                tally.sent_bytes += BULK_BYTES
                meta = conn.json(up) if up.status == 201 else None
                if not tally.check(isinstance(meta, dict) and meta.get("size_bytes") == BULK_BYTES,
                                   f"64 MiB upload: {up.status}"):
                    continue
                if start >= warm_until:
                    tally.bytes_up += BULK_BYTES
                    tally.upload_s += up.seconds
                doc = Doc(meta["doc_id"], "bulk", filename, meta["upload_timestamp"], BULK_BYTES,
                          0, meta["media_type"])
                for _ in range(self.downloads):
                    t = perf_counter()
                    down = conn.call("GET", f"/documents/{doc.doc_id}")
                    tally.check(check_download(conn, down, doc, pool),
                                f"64 MiB download: {down.status}")
                    tally.sample("download", t, down.seconds, warm_until)
                    if t >= warm_until:
                        tally.bytes_down += down.length
                        tally.download_s += down.seconds
                t = perf_counter()
                rm = conn.call("DELETE", f"/documents/{doc.doc_id}")
                tally.check(rm.status == 200, f"delete: {rm.status}")
                tally.sample("delete", t, rm.seconds, warm_until)
        finally:
            conn.close()
        return tally


# -- audit ---------------------------------------------------------------


class Audit:
    """run_audit back to back on a leaky and a hardened directory.

    The leaky one holds ``1.pdf .. 100.pdf`` and no index page; the
    hardened one is a vault with the obscured-subdir policy (index
    placeholder, opaque names) whose store the service process opens.
    """

    def __init__(self, work: Path, seed: int):
        webroot = work / "static"
        self.store = Store(work, seed, 2 * AUDIT_FILE_BYTES, PlacementPolicy.OBSCURED_SUBDIR,
                           webroot=webroot, vault_dir=webroot / "hardened")
        rng = random.Random(f"{seed}-audit")
        leaky = webroot / "leaky"
        leaky.mkdir()
        pool = self.store.pool
        with fsync_skipped():
            self.store.token("owner")
            for i in range(1, AUDIT_FILES + 1):
                off = rng.randrange(AUDIT_FILE_BYTES)
                (leaky / f"{i}.pdf").write_bytes(pool[off : off + AUDIT_FILE_BYTES])
                self.store.upload("owner", f"report{i}.pdf", rng.randrange(AUDIT_FILE_BYTES),
                                  AUDIT_FILE_BYTES)
        self.store.close()
        self.webroot = webroot
        fail = {r: Verdict.FAIL for r in Rule}
        # listing probe, then 1..N all hit, then each found name fetched again
        self.expect = {"leaky": (fail, 1 + 2 * AUDIT_FILES)}
        # listing probe, then misses until the miss run ends the sequence
        self.expect["hardened"] = ({r: Verdict.PASS for r in Rule}, 1 + DEFAULT_MISS_RUN)

    def run(self, port: int, until: float, warm_until: float) -> Tally:
        """``port`` is the static server's; each probe is one request."""
        import requests

        tally = Tally()
        get = requests.Session.get
        os.environ["no_proxy"] = "127.0.0.1"  # probes stay on loopback, whatever proxy is set

        def timed_get(session, url, **kw):
            t0 = perf_counter()
            resp = get(session, url, **kw)
            route = "probe_hit" if resp.status_code == 200 else "probe_miss"
            tally.sample(route, t0, perf_counter() - t0, warm_until)
            return resp

        requests.Session.get = timed_get
        try:
            while perf_counter() < until:
                for name, (verdicts, probes) in self.expect.items():
                    report = run_audit(ProbeTarget(f"http://127.0.0.1:{port}/{name}/",
                                                   max_sequential=AUDIT_FILES))
                    tally.audits += 1
                    tally.check(report.verdicts == verdicts and report.probes_sent == probes,
                                f"audit of {name}: {report.probes_sent} probes, "
                                f"{ {r.value: v.value for r, v in report.verdicts.items()} }")
        finally:
            requests.Session.get = get
        return tally


WORKLOADS = {
    "small-mix": SmallMix,
    "bulk-transfer": BulkTransfer,
    "large-catalog": LargeCatalog,
    "audit": Audit,
}
