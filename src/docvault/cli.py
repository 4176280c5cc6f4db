"""Operator command line: one binary, one verb per invocation.

Exit codes follow one convention across verbs: 0 success, 1 domain failure
(conflict, not found, failed audit, inconsistent vault), 2 environment
failure (bad config, unreachable store or target).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .access import Principal, Role
from .auditor import ProbeTarget, render_text_report, run_audit
from .config import load_config
from .errors import (
    ConfigError,
    IoFailure,
    PolicyPathMismatch,
    StorageFailure,
    VaultError,
    WeakKey,
)
from .journal import JournalStore, ReadOnlyJournal
from .metadata import MetadataStore, check_consistency
from .placement import materialize_layout, verify_layout
from .service import VaultCore, VaultService


LS_PAGE_SIZE = 1000
# Local CLI verbs run with operator (admin) rights; they act on the
# store directly, not through the HTTP surface.
OPERATOR = Principal(username="operator", role=Role.ADMIN)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vault",
        description="Document vault: opaque storage, mediated delivery, exposure audits.",
    )
    parser.add_argument("--version", action="version", version=f"vault {__version__}")
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("init", help="create the vault directory and protection files")

    sub.add_parser("serve", help="run the HTTP service")

    p = sub.add_parser("ingest", help="store a local file in the vault")
    p.add_argument("file")
    p.add_argument("--owner", required=True)
    p.add_argument("--filename", help="stored original filename (defaults to basename)")

    p = sub.add_parser("ls", help="list stored documents")
    p.add_argument("--owner", help="only this owner's documents")

    p = sub.add_parser("get", help="fetch a document to a local file")
    p.add_argument("doc_id")
    p.add_argument(
        "-o", "--output",
        help="output path (defaults to the original name's base name, never overwritten)",
    )

    p = sub.add_parser("rm", help="delete a document")
    p.add_argument("doc_id")

    p = sub.add_parser("token", help="mint or revoke API tokens")
    tsub = p.add_subparsers(dest="token_verb", required=True)
    tc = tsub.add_parser("create")
    tc.add_argument("username")
    tc.add_argument("--role", choices=[r.value for r in Role], default=Role.USER.value)
    tr = tsub.add_parser("revoke")
    tr.add_argument("token_id")

    p = sub.add_parser("audit", help="probe a web-exposed directory for leaks")
    p.add_argument("base_url")
    p.add_argument("--ext", default="pdf", help="comma-separated extensions to probe")
    p.add_argument("--max-seq", type=int, default=100)
    p.add_argument("--delay-ms", type=int, default=0)
    p.add_argument("--known-names", metavar="FILE", help="file with one filename per line")
    p.add_argument("--json", action="store_true", dest="as_json")

    sub.add_parser("fsck", help="check the vault layout, then records against blobs")

    return parser


@contextmanager
def _open_core(args):
    config = load_config(config_file=args.config)
    config.layout()  # refuse a placement that no longer fits the paths
    key = config.load_key()
    with JournalStore(config.store_path) as journal:
        core = VaultCore(config, key, journal)
        try:
            yield core
        finally:
            core.close()


def cmd_init(args) -> int:
    config = load_config(config_file=args.config)
    result = materialize_layout(config.layout())
    if result.already_compliant:
        print("already compliant")
    else:
        for path in result.created:
            print(f"created {path}")
    return 0


def cmd_serve(args) -> int:
    config = load_config(config_file=args.config)
    service = VaultService(config)
    host, port = service.address
    print(f"serving on {host}:{port} (policy: {config.policy.value})")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.stop()
    return 0


def cmd_ingest(args) -> int:
    source = Path(args.file)
    if not source.is_file():
        print(f"no such file: {source}", file=sys.stderr)
        return 2
    stored_name = args.filename or source.name
    owner = Principal(username=args.owner, role=Role.USER)
    with _open_core(args) as core, open(source, "rb") as fh:
        record = core.upload(owner, stored_name, fh, source.stat().st_size)
    print(f"{record.doc_id} {record.owner} {record.original_filename} "
          f"{record.size_bytes} bytes")
    return 0


def cmd_ls(args) -> int:
    with _open_core(args) as core:
        cursor = None
        while True:
            if args.owner:
                records, cursor = core.records.list_by_owner(args.owner, cursor, LS_PAGE_SIZE)
            else:
                records, cursor = core.records.list_all(cursor, LS_PAGE_SIZE)
            for r in records:
                print(f"{r.doc_id}  {r.owner:<16} {r.size_bytes:>10}  {r.original_filename}")
            if cursor is None:
                return 0


def cmd_get(args) -> int:
    with _open_core(args) as core:
        result = core.download(OPERATOR, args.doc_id)
        try:
            if args.output:
                out, mode = Path(args.output), "wb"
            else:
                # The stored name is the uploader's: only its base name, in
                # the working directory, and never over an existing file.
                out, mode = Path(os.path.basename(result.record.original_filename)), "xb"
                if out.name in ("", ".."):
                    print("error: the stored name has no file name; use -o", file=sys.stderr)
                    return 1
            with open(out, mode) as fh:
                for chunk in result.chunks():
                    fh.write(chunk)
        except FileExistsError:
            print(f"error: {out} exists; use -o to overwrite it", file=sys.stderr)
            return 1
        finally:
            result.close()
    print(f"wrote {out} ({result.length} bytes)")
    return 0


def cmd_rm(args) -> int:
    with _open_core(args) as core:
        core.delete_document(OPERATOR, args.doc_id)
    print(f"deleted {args.doc_id}")
    return 0


def cmd_token(args) -> int:
    with _open_core(args) as core:
        if args.token_verb == "create":
            token_id, plaintext = core.tokens.create_token(args.username, Role(args.role))
            # The plaintext is shown exactly once; only its hash is stored.
            print(f"token_id: {token_id}")
            print(f"token: {plaintext}")
            return 0
        if not core.tokens.revoke_token(args.token_id):
            print(f"unknown token_id: {args.token_id}", file=sys.stderr)
            return 1
    print(f"revoked {args.token_id}")
    return 0


def cmd_audit(args) -> int:
    known_names = None
    if args.known_names:
        known_names = [
            line.strip()
            for line in Path(args.known_names).read_text().splitlines()
            if line.strip()
        ]
    target = ProbeTarget(
        base_url=args.base_url,
        extensions=tuple(e.strip() for e in args.ext.split(",") if e.strip()),
        max_sequential=args.max_seq,
        request_delay_ms=args.delay_ms,
    )
    report = run_audit(target, known_names)
    print(report.to_json() if args.as_json else render_text_report(report))
    if report.indeterminate:
        return 2
    return 0 if report.passed else 1


def cmd_fsck(args) -> int:
    # No key, no core and no write: the config, the journal and the vault directory.
    config = load_config(config_file=args.config)
    violations = verify_layout(config.policy, config.webroot, config.vault_dir)
    for v in violations:
        print(f"layout {v.rule}: {v.path} ({v.detail})", flush=True)
    with ReadOnlyJournal(config.store_path) as journal:
        issues = check_consistency(MetadataStore(journal), config.vault_dir)
    for issue in issues:
        who = issue.doc_id or "-"
        print(f"{issue.kind}: {who} {issue.path} ({issue.detail})")
    if violations or issues:
        print(f"{len(violations) + len(issues)} issue(s) found")
        return 1
    print("clean")
    return 0


_HANDLERS = {
    "init": cmd_init,
    "serve": cmd_serve,
    "ingest": cmd_ingest,
    "ls": cmd_ls,
    "get": cmd_get,
    "rm": cmd_rm,
    "token": cmd_token,
    "audit": cmd_audit,
    "fsck": cmd_fsck,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.verb](args)
    except (ConfigError, WeakKey, PolicyPathMismatch, IoFailure, StorageFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VaultError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
