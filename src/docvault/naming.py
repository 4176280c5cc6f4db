"""Storage names: the one module that knows their format.

A stored blob is named ``<32 hex chars>.<ext>``, a plain ``str`` derived from
(username, upload timestamp, server secret).  An outsider who does not hold
the server secret cannot regenerate a name even if they learn the username
and the exact upload second, unlike the trivially enumerable ``1.pdf,
2.pdf, ...`` style that makes blind guessing practical.  ``derive_opaque_name``
makes a name, and ``check_storage_name`` checks one read back from the store,
so that no stored record can name a path outside the vault directory.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidInput, WeakKey

MIN_KEY_OCTETS = 16
MAX_KEY_OCTETS = 64

_EXTENSION = re.compile(r"[a-z0-9]{1,10}")
_STORAGE_NAME = re.compile(r"[0-9a-f]{32}\." + _EXTENSION.pattern)
_FALLBACK_EXTENSION = "bin"


@dataclass(frozen=True)
class SecretKey:
    """Server-side secret used as the trailing operand of the derivation.

    Loaded once at startup and treated as read-only.  The raw octets never
    appear in logs, reports, or responses; ``repr`` is redacted.  Keys
    shorter than MIN_KEY_OCTETS are rejected.
    """

    octets: bytes
    source: str = "explicit"

    def __post_init__(self):
        if not isinstance(self.octets, bytes):
            raise WeakKey("secret key must be raw bytes")
        if len(self.octets) < MIN_KEY_OCTETS:
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


def extension_for(filename: str) -> str:
    """Lowercased extension of the upload, or a fixed fallback when it has
    none that a storage name can carry."""
    ext = os.path.splitext(filename)[1].lstrip(".").lower()
    return ext if _EXTENSION.fullmatch(ext) else _FALLBACK_EXTENSION


def derive_opaque_name(username: str, timestamp: int, extension: str, key: bytes) -> str:
    """Derive the deterministic storage name for one upload.

    The name's 32 hex chars are the MD5 of the raw octet concatenation
    ``UTF-8(username) || decimal(timestamp) || key``, with no separators;
    the extension is checked but not hashed.
    """
    check_username(username)
    if isinstance(timestamp, bool) or not isinstance(timestamp, int) or timestamp < 0:
        raise InvalidInput("timestamp must be an integer >= 0")
    if not _EXTENSION.fullmatch(extension):
        raise InvalidInput(f"extension {extension!r} must match [a-z0-9]{{1,10}}")
    digest = hashlib.md5(username.encode() + str(timestamp).encode() + key).hexdigest()
    return f"{digest}.{extension}"


def check_storage_name(text: str) -> str:
    """``text`` if it has the form a derivation gives, else InvalidInput."""
    if not (isinstance(text, str) and _STORAGE_NAME.fullmatch(text)):
        raise InvalidInput("storage name must be 32 lowercase hex chars, '.', [a-z0-9]{1,10}")
    return text
