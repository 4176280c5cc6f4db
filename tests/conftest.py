import os
import socket
import threading
from functools import partial
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from docvault.config import ServiceConfig
from docvault.journal import JournalStore
from docvault.naming import SecretKey
from docvault.placement import PlacementPolicy
from docvault.service import VaultCore, VaultService

GOLDEN_DIR = Path(__file__).parent / "golden"

TEST_KEY = b"unit-test-secret-key-0123456789"


def make_config(tmp_path: Path, policy=PlacementPolicy.DENIED_SUBDIR, **kw) -> ServiceConfig:
    webroot = tmp_path / "webroot"
    webroot.mkdir(exist_ok=True)
    if policy is PlacementPolicy.OUTSIDE_WEBROOT:
        vault_dir = tmp_path / "vault"
    else:
        vault_dir = webroot / "docs"
    defaults = dict(
        bind_host="127.0.0.1",
        bind_port=0,
        webroot=str(webroot),
        vault_dir=str(vault_dir),
        policy=policy,
        key_file=None,
        key_env=None,
        store_path=str(tmp_path / "store.journal"),
        max_upload_bytes=16 * 1024 * 1024,
    )
    defaults.update(kw)
    return ServiceConfig(**defaults)


@pytest.fixture
def vault_config(tmp_path):
    return make_config(tmp_path)


@pytest.fixture
def core(vault_config, tmp_path):
    from docvault.placement import materialize_layout

    materialize_layout(vault_config.layout())
    journal = JournalStore(vault_config.store_path)
    core = VaultCore(vault_config, SecretKey(TEST_KEY), journal)
    yield core
    core.close()
    journal.close()


def inode(path) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_dev, st.st_ino


@pytest.fixture
def fsynced(monkeypatch) -> list[tuple[int, int]]:
    """The (device, inode) of each file or directory passed to os.fsync, in order."""
    synced = []
    fsync = os.fsync

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append((st.st_dev, st.st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return synced


@pytest.fixture
def running_service(vault_config):
    service = VaultService(vault_config, key=SecretKey(TEST_KEY))
    service.start()
    yield service
    service.stop()


class _LoggingStaticHandler(SimpleHTTPRequestHandler):
    """Static file server (auto-index included) that records request methods."""

    def log_message(self, fmt, *args):
        pass

    def _record(self):
        self.server.method_log.append((self.command, self.path))

    def do_GET(self):
        self._record()
        super().do_GET()

    def do_HEAD(self):
        self._record()
        super().do_HEAD()

    def do_POST(self):
        self._record()
        self.send_error(405)

    do_PUT = do_POST
    do_DELETE = do_POST


class StaticFixtureServer:
    """Plays the role of an external web server exposing a directory."""

    def __init__(self, root: Path, deny_dirs: tuple[str, ...] = ()):
        handler = partial(_LoggingStaticHandler, directory=str(root))
        if deny_dirs:
            handler = partial(
                _DenyAwareHandler, directory=str(root), deny_dirs=deny_dirs
            )
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.server.method_log = []
        # a short poll, so that stop() does not wait out serve_forever's 0.5 s
        self.thread = threading.Thread(
            target=self.server.serve_forever, args=(0.02,), daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}/"

    def start(self):
        self.thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()

    @property
    def method_log(self):
        return self.server.method_log


class _DenyAwareHandler(_LoggingStaticHandler):
    """Static handler honoring a per-directory deny config, like Apache would."""

    def __init__(self, *args, deny_dirs=(), **kwargs):
        self._deny_dirs = deny_dirs
        super().__init__(*args, **kwargs)

    def _denied(self) -> bool:
        path = self.path.split("?", 1)[0].lstrip("/")
        return any(
            d == "" or path == d or path.startswith(d + "/")
            for d in self._deny_dirs
        )

    def do_GET(self):
        self._record()
        if self._denied():
            self.send_error(403)
            return
        SimpleHTTPRequestHandler.do_GET(self)

    def do_HEAD(self):
        self._record()
        if self._denied():
            self.send_error(403)
            return
        SimpleHTTPRequestHandler.do_HEAD(self)


@pytest.fixture
def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
