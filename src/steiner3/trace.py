"""The STEINER3_TRACE counter lines: one JSON object per stage on stderr."""

from __future__ import annotations

import json
import os
import sys


def tracing() -> bool:
    """Whether STEINER3_TRACE is "1", read afresh at every call."""
    return os.environ.get("STEINER3_TRACE") == "1"


def emit(stage: str, **counts) -> None:
    """Write {"stage": stage, **counts} as one JSON line to stderr when tracing."""
    if tracing():
        print(json.dumps({"stage": stage, **counts}), file=sys.stderr)
