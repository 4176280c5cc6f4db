"""Vault directory planning, protection artifacts, and on-disk verification.

Three placement policies, strongest first:

* OutsideWebRoot  - blobs live outside the served tree; nothing is fetchable.
* DeniedSubdir    - blobs live under the webroot, but a per-directory deny
                    config refuses all direct HTTP access.
* ObscuredSubdir  - blobs live under the webroot with no server-side denial;
                    an index placeholder suppresses auto-generated listings
                    and opaque names prevent guessing.

Planning reads the disk only to resolve symlinks: containment is decided on
the paths both as named and as the kernel resolves them.  Materialization
writes the directory and artifacts and is idempotent.  Verification plans
again and re-checks everything on disk, reporting which protection each
violation breaches.  A blob is reached one way only, by ``open_blob`` under
the vault directory that ``open_vault_dir`` holds open.
"""

from __future__ import annotations

import enum
import errno
import html
import os
import stat
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import PurePosixPath, Path

from .errors import ArtifactConflict, BlobMissing, IoFailure, PolicyPathMismatch, StorageFailure

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


def _below(path: str, root: str) -> bool:
    # Component-wise, so /a/b-evil is not below /a/b.
    return path != root and os.path.commonpath((path, root)) == root


def _vault_rel(policy: PlacementPolicy, webroot: str, vault_dir: str) -> str:
    """The vault's path relative to the webroot ("" for outside-webroot).

    A web server maps a URL onto the webroot by name and then follows
    symlinks, so a vault is served when it lies under the webroot as named,
    or when its resolved path lies under the resolved webroot.  Each path is
    resolved once.  Raises PolicyPathMismatch when the policy does not fit.
    """
    # First: realpath would make a relative path absolute.
    if not PurePosixPath(webroot).is_absolute():
        raise PolicyPathMismatch(f"webroot must be absolute: {webroot!r}")
    if not PurePosixPath(vault_dir).is_absolute():
        raise PolicyPathMismatch(f"vault_dir must be absolute: {vault_dir!r}")
    root, vault = os.path.realpath(webroot), os.path.realpath(vault_dir)
    named_root, named_vault = os.path.normpath(webroot), os.path.normpath(vault_dir)
    if policy is PlacementPolicy.OUTSIDE_WEBROOT:
        roots = (named_root, root)
        if any(os.path.commonpath((v, r)) == r for v in (named_vault, vault) for r in roots):
            raise PolicyPathMismatch(
                f"outside-webroot placement, but {vault_dir} lies inside {webroot}"
            )
        return ""
    if _below(vault, root):
        return os.path.relpath(vault, root)
    # Named below the webroot through a symlink that leads out of it: the
    # server follows the name, and so do the artifacts written under it.
    # After a "..", the name no longer says where the kernel goes.
    if _below(named_vault, named_root) and ".." not in (
        PurePosixPath(webroot).parts + PurePosixPath(vault_dir).parts
    ):
        return os.path.relpath(named_vault, named_root)
    raise PolicyPathMismatch(
        f"{policy.value} placement requires vault_dir inside {webroot}, got {vault_dir}"
    )


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


def _protection_files(policy: PlacementPolicy) -> tuple[tuple[str, bytes], ...]:
    """(name in the vault directory, exact bytes) for each protection file."""
    if policy is PlacementPolicy.OUTSIDE_WEBROOT:
        return ()
    # In a denied subdirectory too: layered protection costs nothing and
    # covers a server that ignores the deny file.
    placeholder = ((INDEX_PLACEHOLDER_NAME, emit_index_placeholder(DEFAULT_PLACEHOLDER_MESSAGE)),)
    if policy is PlacementPolicy.DENIED_SUBDIR:
        return ((DENY_CONFIG_NAME, emit_deny_config()),) + placeholder
    return placeholder


def plan_layout(policy: PlacementPolicy, webroot: str, vault_dir: str) -> VaultLayout:
    """Validate the policy/path pair and list its artifacts; paths kept as given."""
    rel = _vault_rel(policy, webroot, vault_dir)
    artifacts = tuple((f"{rel}/{name}", content) for name, content in _protection_files(policy))
    return VaultLayout(webroot=webroot, vault_dir=vault_dir, artifacts=artifacts)


def _protection_fault(path: Path, content: bytes) -> str | None:
    """What is wrong with the protection file at ``path``: "missing", "not a
    regular file" (a symlink there is not followed) or "content differs";
    None when it is a regular file of exactly ``content``."""
    try:
        fd, _ = open_blob(None, str(path))
        with open(fd, "rb") as fh:
            return None if fh.read() == content else "content differs"
    except BlobMissing:
        return "not a regular file" if os.path.lexists(path) else "missing"
    except OSError as e:
        raise IoFailure(path, e)


def materialize_layout(layout: VaultLayout) -> MaterializeResult:
    """Create the vault directory and write every protection artifact.

    Idempotent: a second run over a compliant layout changes nothing and
    reports already_compliant.  Each artifact is created exclusively, and an
    entry already at its path is read without following a link: anything
    but a regular file of the same bytes is left as it is and refused.
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
        try:  # in the vault directory made above
            with suppress(FileExistsError), open(target, "xb") as fh:
                fh.write(content)
                created.append(str(target))
                continue
        except OSError as e:
            raise IoFailure(target, e)
        if _protection_fault(target, content):
            raise ArtifactConflict(target)

    return MaterializeResult(created=tuple(created), already_compliant=not created)


def verify_layout(policy: PlacementPolicy, webroot: str, vault_dir: str) -> list[LayoutViolation]:
    """Plan again and re-check on disk; empty list means fully compliant.

    A plan that fails is a 1a violation, and the vault directory's mode and
    protection files are still checked.
    """
    violations: list[LayoutViolation] = []
    vault = Path(vault_dir)

    try:
        _vault_rel(policy, webroot, vault_dir)
    except PolicyPathMismatch as e:
        violations.append(LayoutViolation("1a", vault_dir, str(e)))

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

    for name, content in _protection_files(policy):
        target = vault / name
        fault = _protection_fault(target, content)
        if fault:
            rule = "1b" if name == DENY_CONFIG_NAME else "2"
            violations.append(LayoutViolation(rule, str(target), f"protection file {fault}"))

    return violations


def open_vault_dir(path: str | Path) -> int:
    """Hold the vault directory open; every blob is reached under this fd."""
    try:
        return os.open(path, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)
    except OSError as e:
        raise StorageFailure(f"cannot open vault directory {path}: {e.strerror}") from None


def open_blob(vault_fd: int | None, name: str) -> tuple[int, int]:
    """Open one blob relative to the held vault directory: (fd, size).

    A storage name has no ``/``, and O_NOFOLLOW refuses a symlink planted
    under it, so the open cannot leave the vault.  A missing name, a symlink
    or anything but a regular file raises BlobMissing, with no fd left open.
    With no directory fd, ``name`` is a path whose last component is not
    followed: a protection file is read that way.
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
