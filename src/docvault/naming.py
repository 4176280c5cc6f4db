"""Opaque storage-name derivation.

Stored blobs get names of the form ``<32 hex chars>.<ext>`` derived from
(username, upload timestamp, server secret).  An outsider who does not hold
the server secret cannot regenerate a name even if they learn the username
and the exact upload second, unlike the trivially enumerable ``1.pdf,
2.pdf, ...`` style that makes blind guessing practical.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidInput, WeakKey

MIN_KEY_OCTETS = 16
MAX_KEY_OCTETS = 64

_EXTENSION_RE = re.compile(r"^[a-z0-9]{1,10}$")
_HEX32_RE = re.compile(r"^[0-9a-f]{32}$")


@dataclass(frozen=True)
class SecretKey:
    """Server-side secret used as the trailing operand of the derivation.

    Loaded once at startup and treated as read-only.  The raw octets never
    appear in logs, reports, or responses; ``repr`` is redacted.

    Keys shorter than MIN_KEY_OCTETS are rejected.  ``allow_weak=True``
    bypasses the length check so that known-answer vectors with short keys
    can be reproduced in tests; never use it for a deployed vault.
    """

    octets: bytes
    source: str = "explicit"
    allow_weak: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.octets, bytes):
            raise WeakKey("secret key must be raw bytes")
        if not self.allow_weak and len(self.octets) < MIN_KEY_OCTETS:
            raise WeakKey(
                f"secret key is {len(self.octets)} octets; minimum is {MIN_KEY_OCTETS}"
            )
        if len(self.octets) > MAX_KEY_OCTETS:
            raise WeakKey(f"secret key longer than {MAX_KEY_OCTETS} octets")

    def __repr__(self):  # never leak key material
        return f"SecretKey(<{len(self.octets)} octets>, source={self.source!r})"

    __str__ = __repr__

    @classmethod
    def load_file(cls, path: str | Path) -> "SecretKey":
        """Read raw key octets from a file, stripping exactly one trailing LF."""
        data = Path(path).read_bytes()
        if data.endswith(b"\n"):
            data = data[:-1]
        return cls(data, source=f"file:{path}")


def check_username(username: str) -> None:
    """The one username rule, for a token and a derivation alike: not empty,
    no NUL, and encodable as UTF-8, which the derivation hashes."""
    if not username:
        raise InvalidInput("username must be non-empty")
    if "\x00" in username:
        raise InvalidInput("username must not contain NUL")
    try:
        username.encode()
    except UnicodeEncodeError:
        raise InvalidInput("username must be valid UTF-8") from None


@dataclass(frozen=True)
class NameInputs:
    """The public operands of a derivation: who uploaded, when, and the extension.

    Usernames are UTF-8 encoded before hashing; the extension is validated
    but is not part of the digest input.
    """

    username: str
    upload_timestamp: int
    extension: str

    def __post_init__(self):
        check_username(self.username)
        if not isinstance(self.upload_timestamp, int) or isinstance(self.upload_timestamp, bool):
            raise InvalidInput("upload_timestamp must be an integer")
        if self.upload_timestamp < 0:
            raise InvalidInput("upload_timestamp must be >= 0")
        if not _EXTENSION_RE.match(self.extension):
            raise InvalidInput(
                f"extension {self.extension!r} must match [a-z0-9]{{1,10}}"
            )


@dataclass(frozen=True)
class OpaqueName:
    """A derived storage name: 32 lowercase hex chars plus the extension."""

    digest_hex: str
    extension: str

    def __post_init__(self):
        if not _HEX32_RE.match(self.digest_hex):
            raise InvalidInput("digest_hex must be 32 lowercase hex chars")
        if not _EXTENSION_RE.match(self.extension):
            raise InvalidInput("extension must match [a-z0-9]{1,10}")

    def render(self) -> str:
        return f"{self.digest_hex}.{self.extension}"

    @classmethod
    def parse(cls, rendered: str) -> "OpaqueName":
        stem, _, ext = rendered.partition(".")
        return cls(stem, ext)


def derive_opaque_name(inputs: NameInputs, key: SecretKey) -> OpaqueName:
    """Derive the deterministic storage name for one upload.

    The name's 32 hex chars are the MD5 of the raw octet concatenation
    ``username || decimal(timestamp) || key``, with no separators.
    """
    material = (
        inputs.username.encode("utf-8")
        + str(inputs.upload_timestamp).encode("ascii")
        + key.octets
    )
    return OpaqueName(digest_hex=hashlib.md5(material).hexdigest(), extension=inputs.extension)
