"""Vault directory planning, protection artifacts, and on-disk verification.

Three placement policies, strongest first:

* OutsideWebRoot  - blobs live outside the served tree; nothing is fetchable.
* DeniedSubdir    - blobs live under the webroot, but a per-directory deny
                    config refuses all direct HTTP access.
* ObscuredSubdir  - blobs live under the webroot with no server-side denial;
                    an index placeholder suppresses auto-generated listings
                    and opaque names prevent guessing.

Planning is pure; materialization writes the directory and artifacts and is
idempotent.  Verification re-checks everything on disk and reports which
protection each violation breaches.  A blob is reached one way only, by
``open_blob`` under the held vault directory.
"""

from __future__ import annotations

import enum
import errno
import html
import os
import stat
from dataclasses import dataclass, field
from pathlib import PurePosixPath, Path

from .errors import ArtifactConflict, BlobMissing, IoFailure, PolicyPathMismatch

DENY_CONFIG_NAME = ".htaccess"
INDEX_PLACEHOLDER_NAME = "index.html"
DEFAULT_PLACEHOLDER_MESSAGE = "Access to this directory is forbidden"

VAULT_DIR_MODE = 0o700

# O_NONBLOCK only keeps the open from waiting on a FIFO planted under a
# blob's name; reads of a regular file ignore it.
_BLOB_FLAGS = os.O_RDONLY | os.O_NOFOLLOW | os.O_CLOEXEC | os.O_NONBLOCK


class PlacementPolicy(enum.Enum):
    OUTSIDE_WEBROOT = "outside-webroot"
    DENIED_SUBDIR = "denied-subdir"
    OBSCURED_SUBDIR = "obscured-subdir"


@dataclass(frozen=True)
class VaultLayout:
    policy: PlacementPolicy
    webroot: str
    vault_dir: str
    # (path relative to webroot, exact bytes to write)
    artifacts: tuple[tuple[str, bytes], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class LayoutViolation:
    rule: str  # "1a", "1b", "2", or "perm"
    path: str
    detail: str


@dataclass(frozen=True)
class MaterializeResult:
    created: tuple[str, ...]
    already_compliant: bool


def _components(p: str) -> tuple[str, ...]:
    # Lexical normalization only; "." and ".." are resolved without touching
    # the filesystem so planning works for paths that do not exist yet.
    parts: list[str] = []
    for part in PurePosixPath(p).parts:
        if part == ".":
            continue
        if part == "..":
            if len(parts) > 1:
                parts.pop()
            continue
        parts.append(part)
    return tuple(parts)


def is_inside(candidate: str, ancestor: str) -> bool:
    """Component-wise containment: /a/b-evil is NOT inside /a/b."""
    c, a = _components(candidate), _components(ancestor)
    return len(c) > len(a) and c[: len(a)] == a


def emit_deny_config() -> bytes:
    """The two-directive per-directory deny block, byte-stable.

    The directive is written as ``Deny,Allow`` with no space after the
    comma: the Apache grammar rejects the spaced form, and a config the
    server cannot parse protects nothing.
    """
    return b"Order Deny,Allow\nDeny from all\n"


def emit_index_placeholder(message: str | None = None) -> bytes:
    """A minimal index page that suppresses auto-generated directory listings.

    Empty body by default; when a message is given it appears in the body,
    HTML-escaped.
    """
    body = html.escape(message) if message else ""
    doc = (
        "<!DOCTYPE html>\n"
        "<html>\n"
        "<head><meta charset=\"utf-8\"><title></title></head>\n"
        f"<body>{body}</body>\n"
        "</html>\n"
    )
    return doc.encode("utf-8")


def plan_layout(
    policy: PlacementPolicy,
    webroot: str,
    vault_dir: str,
    placeholder_message: str | None = DEFAULT_PLACEHOLDER_MESSAGE,
) -> VaultLayout:
    """Validate the policy/path combination and list the artifacts it needs."""
    if not PurePosixPath(webroot).is_absolute():
        raise PolicyPathMismatch(f"webroot must be absolute: {webroot!r}")
    if not PurePosixPath(vault_dir).is_absolute():
        raise PolicyPathMismatch(f"vault_dir must be absolute: {vault_dir!r}")

    inside = is_inside(vault_dir, webroot)
    if policy is PlacementPolicy.OUTSIDE_WEBROOT:
        if inside or _components(vault_dir) == _components(webroot):
            raise PolicyPathMismatch(
                f"outside-webroot placement, but {vault_dir} lies inside {webroot}"
            )
        artifacts: tuple[tuple[str, bytes], ...] = ()
    else:
        if not inside:
            raise PolicyPathMismatch(
                f"{policy.value} placement requires vault_dir inside {webroot}, "
                f"got {vault_dir}"
            )
        rel = "/".join(_components(vault_dir)[len(_components(webroot)):])
        placeholder = emit_index_placeholder(placeholder_message)
        if policy is PlacementPolicy.DENIED_SUBDIR:
            # Placeholder included as well: layered protection costs nothing
            # and covers a server that ignores the deny file.
            artifacts = (
                (f"{rel}/{DENY_CONFIG_NAME}", emit_deny_config()),
                (f"{rel}/{INDEX_PLACEHOLDER_NAME}", placeholder),
            )
        else:
            artifacts = ((f"{rel}/{INDEX_PLACEHOLDER_NAME}", placeholder),)

    return VaultLayout(
        policy=policy, webroot=webroot, vault_dir=vault_dir, artifacts=artifacts
    )


def materialize_layout(layout: VaultLayout, force: bool = False) -> MaterializeResult:
    """Create the vault directory and write every protection artifact.

    Idempotent: a second run over a compliant layout changes nothing and
    reports already_compliant.  A foreign file at an artifact path is never
    overwritten unless force is set.
    """
    created: list[str] = []
    vault = Path(layout.vault_dir)
    try:
        if not vault.is_dir():
            vault.mkdir(mode=VAULT_DIR_MODE, parents=True)
            created.append(str(vault))
        os.chmod(vault, VAULT_DIR_MODE)
    except OSError as e:
        raise IoFailure(vault, e)

    for rel, content in layout.artifacts:
        target = Path(layout.webroot) / rel
        try:
            if target.exists():
                if target.read_bytes() == content:
                    continue
                if not force:
                    raise ArtifactConflict(target)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
            created.append(str(target))
        except OSError as e:
            raise IoFailure(target, e)

    return MaterializeResult(created=tuple(created), already_compliant=not created)


def verify_layout(layout: VaultLayout) -> list[LayoutViolation]:
    """Re-check the layout on disk; empty list means fully compliant."""
    violations: list[LayoutViolation] = []
    vault = Path(layout.vault_dir)

    if layout.policy is PlacementPolicy.OUTSIDE_WEBROOT:
        if is_inside(layout.vault_dir, layout.webroot):
            violations.append(
                LayoutViolation("1a", layout.vault_dir, "vault dir is inside the webroot")
            )
    else:
        if not is_inside(layout.vault_dir, layout.webroot):
            violations.append(
                LayoutViolation("1a", layout.vault_dir, "vault dir is not inside the webroot")
            )

    if not vault.is_dir():
        violations.append(LayoutViolation("1a", str(vault), "vault dir missing"))
        return violations

    try:
        mode = stat.S_IMODE(os.stat(vault).st_mode)
    except OSError as e:
        raise IoFailure(vault, e)
    if mode & 0o077:
        violations.append(
            LayoutViolation(
                "perm", str(vault), f"vault dir mode {oct(mode)} grants group/other access"
            )
        )

    for rel, content in layout.artifacts:
        target = Path(layout.webroot) / rel
        rule = "1b" if target.name == DENY_CONFIG_NAME else "2"
        try:
            on_disk = target.read_bytes()
        except FileNotFoundError:
            violations.append(LayoutViolation(rule, str(target), "protection file missing"))
            continue
        except OSError as e:
            raise IoFailure(target, e)
        if on_disk != content:
            violations.append(
                LayoutViolation(rule, str(target), "protection file content differs")
            )

    return violations


def open_blob(vault_fd: int, name: str) -> tuple[int, int]:
    """Open one blob relative to the held vault directory: (fd, size).

    A storage name has no ``/``, and O_NOFOLLOW refuses a symlink planted
    under it, so the open cannot leave the vault.  A missing name, a symlink
    or anything but a regular file raises BlobMissing, with no fd left open.
    """
    try:
        fd = os.open(name, _BLOB_FLAGS, dir_fd=vault_fd)
    except OSError as exc:
        if exc.errno not in (errno.ENOENT, errno.ELOOP):
            raise
        raise BlobMissing("blob missing") from None
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise BlobMissing("blob is not a regular file")
    except BaseException:
        os.close(fd)
        raise
    return fd, st.st_size
