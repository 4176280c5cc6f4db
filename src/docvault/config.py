"""Service configuration: environment variables and key=value files.

Every knob has a VAULT_* environment variable; an optional config file
(one key=value per line, same names) fills in whatever the environment
leaves unset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ConfigError, IoFailure
from .naming import SecretKey
from .placement import PlacementPolicy, VaultLayout, plan_layout

ENV_VARS = (
    "VAULT_BIND",
    "VAULT_WEBROOT",
    "VAULT_DIR",
    "VAULT_POLICY",
    "VAULT_KEY_FILE",
    "VAULT_KEY",
    "VAULT_STORE",
    "VAULT_MAX_UPLOAD",
)

DEFAULT_MAX_UPLOAD = 100 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    bind_host: str
    bind_port: int
    webroot: str
    vault_dir: str
    policy: PlacementPolicy
    key_file: str | None
    key_env: str | None = field(repr=False)  # VAULT_KEY's value, from any source
    store_path: str
    max_upload_bytes: int

    def __post_init__(self):
        if self.max_upload_bytes <= 0:
            raise ConfigError("max_upload_bytes must be positive")
        for name, p in (("webroot", self.webroot), ("vault_dir", self.vault_dir),
                        ("store_path", self.store_path)):
            if not Path(p).is_absolute():
                raise ConfigError(f"{name} must be an absolute path: {p!r}")

    def layout(self) -> VaultLayout:
        """The placement plan, made on first use and kept: raises PolicyPathMismatch."""
        return self._plan

    @cached_property
    def _plan(self) -> VaultLayout:
        return plan_layout(self.policy, self.webroot, self.vault_dir)

    def load_key(self) -> SecretKey:
        """VAULT_KEY_FILE takes precedence over VAULT_KEY; refuse to run keyless.
        A key file that cannot be read raises IoFailure."""
        if self.key_file:
            try:
                return SecretKey.load_file(self.key_file)
            except OSError as exc:
                raise IoFailure(self.key_file, exc) from None
        if self.key_env:
            return SecretKey(self.key_env.encode("utf-8"), source="VAULT_KEY")
        raise ConfigError("no secret key configured (set VAULT_KEY_FILE or VAULT_KEY)")


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def _parse_bind(bind: str) -> tuple[str, int]:
    host, sep, port = bind.rpartition(":")
    if sep and port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 65535:
        return host, int(port)
    raise ConfigError(f"bind address must be host:port with a port of 0-65535, got {bind!r}")


_POLICY_ALIASES = {p.value: p for p in PlacementPolicy}


def load_config(config_file: str | None = None) -> ServiceConfig:
    """Merge environment > config file, then validate."""
    values: dict[str, str] = {}
    if config_file:
        values.update(parse_config_file(config_file))
    for var in ENV_VARS:
        if var in os.environ:
            values[var] = os.environ[var]

    missing = [v for v in ("VAULT_WEBROOT", "VAULT_DIR", "VAULT_STORE") if not values.get(v)]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")

    policy_name = values.get("VAULT_POLICY", PlacementPolicy.DENIED_SUBDIR.value)
    if policy_name not in _POLICY_ALIASES:
        raise ConfigError(
            f"unknown policy {policy_name!r}; choose from {sorted(_POLICY_ALIASES)}"
        )

    host, port = _parse_bind(values.get("VAULT_BIND", "127.0.0.1:8080"))
    try:
        max_upload = int(values.get("VAULT_MAX_UPLOAD", str(DEFAULT_MAX_UPLOAD)))
    except ValueError:
        raise ConfigError("VAULT_MAX_UPLOAD must be an integer")

    return ServiceConfig(
        bind_host=host,
        bind_port=port,
        webroot=values["VAULT_WEBROOT"],
        vault_dir=values["VAULT_DIR"],
        policy=_POLICY_ALIASES[policy_name],
        key_file=values.get("VAULT_KEY_FILE"),
        key_env=values.get("VAULT_KEY"),
        store_path=values["VAULT_STORE"],
        max_upload_bytes=max_upload,
    )
