"""The fleet result-record codec: canonical JSON.

Shard envelopes are JSON trees (dicts with string keys, lists, strings,
ints, floats, bools, None).  A record is the envelope as compact JSON with
sorted keys, UTF-8 encoded, so the bytes are a deterministic function of
the value: equal envelopes pack to equal bytes whatever order their keys
were inserted in.  The layout is versioned by the spool header around it
(:data:`repro.fleet.spool.SPOOL_VERSION`), not per record.
"""

from __future__ import annotations

import json
from typing import Any

from repro.fleet.errors import RecordFormatError


def pack_record(value: Any) -> bytes:
    """Pack a JSON envelope tree into deterministic bytes."""
    try:
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as error:
        raise RecordFormatError(f"value is not record-packable: {error}") from None
    return text.encode("utf-8")


def unpack_record(buf: bytes) -> Any:
    """Unpack one record packed by :func:`pack_record`.

    Decodes as UTF-8 explicitly: ``json.loads`` on bytes would guess a
    UTF-16 or UTF-32 encoding from NUL bytes and accept some garbage.
    """
    try:
        return json.loads(buf.decode("utf-8"))
    except ValueError as error:
        raise RecordFormatError(f"malformed record: {error}") from None
