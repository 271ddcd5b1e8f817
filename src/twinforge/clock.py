"""Timestamp source with an environment override for reproducible runs.

Reports and twin images carry wall-clock timestamps. Setting
TWINFORGE_TIMESTAMP pins every timestamp to the given ISO-8601 string so
that two pipeline runs with the same config and seed produce byte-identical
artifacts.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone

TIMESTAMP_ENV = "TWINFORGE_TIMESTAMP"


def now_iso() -> str:
    """Current UTC time as an ISO-8601 string, or the pinned override."""
    pinned = os.environ.get(TIMESTAMP_ENV)
    if pinned:
        return pinned
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
