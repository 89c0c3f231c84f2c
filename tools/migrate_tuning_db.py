#!/usr/bin/env python3
"""Migrate pre-tenant tuning database files into tenant namespaces.

Pre-tenant database files keep working without this tool: the shared
``default`` namespace *is* the legacy key format, so every old record
already lands exactly where untenanted lookups search.  What old files
lack is the explicit per-record ``tenant`` field that makes them
self-describing; this tool adds it (``"default"`` unless ``--tenant``
re-homes the records into a named namespace, rewriting their keys with
the ``tenant::`` prefix) and rewrites the file atomically.

Usage::

    # make a pre-tenant file self-describing (records stay in the shared
    # default namespace; keys are unchanged)
    python tools/migrate_tuning_db.py tuning_db.json

    # re-home every record into tenant "acme" (keys gain the acme:: prefix)
    python tools/migrate_tuning_db.py --tenant acme tuning_db.json

    # CI guard: exit 1 if any named file still needs migrating
    python tools/migrate_tuning_db.py --check tuning_db.json listener-*.json

A TCP shard listener's own ``--db`` file uses the same schema, so the same
invocation migrates it.  The rewrite is read-validate-replace: a file that
fails record validation is reported and left untouched.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:
    sys.path.insert(0, str(REPO_SRC))

from repro.atomic_files import replace_atomically  # noqa: E402
from repro.errors import TuningError  # noqa: E402
from repro.tenancy import DEFAULT_TENANT, qualify_key, validate_tenant  # noqa: E402
from repro.tune.db import _SCHEMA_VERSION, TuningDatabase  # noqa: E402


def migrate_file(path: Path, tenant: str, check: bool) -> tuple[int, int]:
    """Migrate one database file; returns (records, changed).

    With ``check=True`` nothing is written — the return value reports what
    a real run would change.
    """
    records, dropped = TuningDatabase.parse_file(path)
    raw = json.loads(path.read_text())

    migrated: dict[str, dict] = {}
    changed = 0
    for key, record in records.items():
        target = (
            dataclasses.replace(record, tenant=tenant)
            if record.tenant != tenant
            else record
        )
        new_key = target.key()
        raw_payload = raw["records"].get(key, {})
        if new_key != key or raw_payload.get("tenant") != tenant:
            changed += 1
        migrated[new_key] = target.to_json()

    migrated_dropped: dict[str, float] = {}
    for key, stamp in dropped.items():
        # Tombstone keys cannot be split back into (tenant, family) — hex
        # fingerprints are themselves valid tenant ids — so re-homing into
        # a named namespace prefixes every bare tombstone as-is.
        new_key = key
        if tenant != DEFAULT_TENANT and not key.startswith(f"{tenant}::"):
            new_key = qualify_key(tenant, key)
            changed += 1
        migrated_dropped[new_key] = stamp

    if changed and not check:
        document = {
            "schema": _SCHEMA_VERSION,
            "records": migrated,
            "dropped": migrated_dropped,
        }
        replace_atomically(path, json.dumps(document, indent=1, sort_keys=True).encode())
    return len(records), changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Rewrite pre-tenant tuning database files with "
        "explicit tenant namespaces (atomic, validate-before-write)."
    )
    parser.add_argument(
        "paths", nargs="+", metavar="DB", help="tuning database files"
    )
    parser.add_argument(
        "--tenant",
        default=DEFAULT_TENANT,
        metavar="NAME",
        help="namespace to (re-)home the records into (default: the shared "
        f"{DEFAULT_TENANT!r} namespace, which keeps every key unchanged)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="report what would change without writing; exit 1 if any file "
        "still needs migrating",
    )
    args = parser.parse_args(argv)
    try:
        validate_tenant(args.tenant)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    pending = 0
    failed = 0
    for name in args.paths:
        path = Path(name)
        try:
            total, changed = migrate_file(path, args.tenant, args.check)
        except TuningError as error:
            print(f"{path}: NOT migrated — {error}", file=sys.stderr)
            failed += 1
            continue
        if changed == 0:
            print(f"{path}: up to date ({total} records)")
        elif args.check:
            print(f"{path}: needs migration ({changed} of {total} entries)")
            pending += 1
        else:
            print(
                f"{path}: migrated {changed} entries "
                f"({total} records -> tenant {args.tenant!r})"
            )
    if failed:
        return 2
    return 1 if args.check and pending else 0


if __name__ == "__main__":
    sys.exit(main())
