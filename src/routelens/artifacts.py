"""Output artifacts with reproducibility metadata.

Every file a subcommand writes starts with a metadata header carrying the
tool version, a hash of the effective configuration, the seed, and the
parameters that shaped the run. Re-running with the same configuration
reproduces every artifact byte for byte once the written_at stamp is
normalized away (normalized_bytes).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

_WRITTEN_AT = re.compile(rb'(# written_at=[^\n]*|"written_at": "[^"]*")')


def config_hash(config: dict) -> str:
    """Stable digest of the effective configuration, output paths excluded."""
    hashable = {k: v for k, v in config.items() if k not in ("output_dir",)}
    canon = json.dumps(hashable, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _meta(config: dict, extra: dict | None = None) -> dict:
    meta = {
        "tool": f"routelens {__version__}",
        "config_hash": config_hash(config),
        "seed": config.get("seed", 0),
        "written_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    for key in sorted(config):
        if key not in ("output_dir",):
            meta[key] = config[key]
    if extra:
        meta.update(extra)
    return meta


@contextmanager
def replacing(path, newline: str | None = None):
    """Text handle onto a temp file beside path that replaces path on
    success; on any error the temp file is removed and path is untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", newline=newline) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_csv(path, config: dict, header: list[str], rows, extra_meta: dict | None = None) -> None:
    with replacing(path, newline="") as handle:
        for key, value in _meta(config, extra_meta).items():
            handle.write(f"# {key}={value}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")


def write_jsonl(path, config: dict, records, extra_meta: dict | None = None) -> None:
    with replacing(path) as handle:
        handle.write(json.dumps({"_meta": _meta(config, extra_meta)}, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def write_json(path, config: dict, payload: dict, extra_meta: dict | None = None) -> None:
    document = {"_meta": _meta(config, extra_meta), **payload}
    with replacing(path) as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_jsonl_records(path) -> list[dict]:
    """Data records of a JSONL artifact, metadata line skipped."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and "_meta" in record:
                continue
            records.append(record)
    return records


def normalized_bytes(path) -> bytes:
    """File contents with the volatile written_at stamp blanked."""
    data = Path(path).read_bytes()
    return _WRITTEN_AT.sub(b"", data)

