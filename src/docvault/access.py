"""Authentication and authorization gate.

Every document operation runs on behalf of an identified principal.
Bearer tokens are minted server-side; only a hash of the secret is stored,
and the plaintext is shown exactly once at creation.  Authorization
produces an AccessProof value that the delivery layer demands, so there is
no code path that streams a blob without a prior Allowed decision.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import secrets
from dataclasses import dataclass

from .errors import InvalidInput
from .journal import JournalStore
from .metadata import DocumentRecord
from .naming import check_username

_TOKEN_PREFIX = "token:"
_GUARD = object()  # module-private; makes AccessProof unforgeable from outside


class Role(enum.Enum):
    USER = "user"
    ADMIN = "admin"


@dataclass(frozen=True)
class Principal:
    username: str
    role: Role

    def __post_init__(self):
        check_username(self.username)


@dataclass(frozen=True, init=False)
class AccessProof:
    """Evidence of an Allowed decision; constructible only via authorize()."""

    principal: Principal
    doc_id: str

    def __init__(self, principal, doc_id, _guard=None):
        if _guard is not _GUARD:
            raise TypeError("AccessProof can only be issued by authorize()")
        object.__setattr__(self, "principal", principal)
        object.__setattr__(self, "doc_id", doc_id)


def authorize(principal: Principal, record: DocumentRecord) -> AccessProof | None:
    """The one decision for every verb, owner or admin: a proof on Allowed,
    None on Denied."""
    if principal.role is Role.ADMIN or principal.username == record.owner:
        return AccessProof(principal, record.doc_id, _guard=_GUARD)
    return None


def _hash_secret(secret: str) -> str:
    return hashlib.sha256(secret.encode("utf-8")).hexdigest()


class TokenStore:
    """Token table over the journal; create/revoke serialized with the writer."""

    def __init__(self, journal: JournalStore):
        self._journal = journal

    def create_token(self, username: str, role: Role = Role.USER) -> tuple[str, str]:
        """Mint a token; returns (token_id, plaintext).  Plaintext is not stored."""
        Principal(username, role)  # the username's rule, checked before anything is stored
        token_id = "t" + secrets.token_hex(8)
        secret = secrets.token_hex(24)
        plaintext = f"{token_id}.{secret}"
        self._journal.put(
            _TOKEN_PREFIX + token_id,
            {
                "token_id": token_id,
                "secret_hash": _hash_secret(secret),
                "username": username,
                "role": role.value,
            },
        )
        return token_id, plaintext

    def revoke_token(self, token_id: str) -> bool:
        return self._journal.delete(_TOKEN_PREFIX + token_id)

    def authenticate(self, presented_token: str) -> Principal | None:
        """Resolve a presented bearer token; constant-time hash comparison."""
        token_id, sep, secret = (presented_token or "").partition(".")
        if not sep or not token_id or not secret:
            return None
        entry = self._journal.get(_TOKEN_PREFIX + token_id)
        if entry is None:
            return None
        if not hmac.compare_digest(entry["secret_hash"], _hash_secret(secret)):
            return None
        try:
            return Principal(username=entry["username"], role=Role(entry["role"]))
        except InvalidInput:  # stored before usernames were checked
            return None


def parse_bearer(header_value: str | None) -> str | None:
    """Extract the token from an Authorization header, scheme Bearer."""
    if not header_value:
        return None
    scheme, _, token = header_value.partition(" ")
    if scheme.lower() != "bearer" or not token.strip():
        return None
    return token.strip()
