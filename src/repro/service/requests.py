"""JSONL request parsing: a thin front end over API v1.

One request per line, in the versioned v1 envelope form
(see :mod:`repro.api.envelope`)::

    {"api_version": "v1", "id": "my-run",
     "config": {"scenario": "two_stream", "v0": 0.2, "seed": 3,
                "solver": "vlasov"},
     "observables": ["energies", "mode1"], "dtype": "float32"}

Pre-v1 bare-config lines — :meth:`SimulationConfig.to_dict` fields at
the top level plus an optional ``id`` — were deprecated when the v1
envelope landed and are now rejected with an error naming the envelope
form.  A line is treated as a v1 envelope whenever it carries
``api_version`` or ``config``; anything else is a legacy line and
hard-errors.  Blank lines and ``#`` comment lines are skipped.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.api.envelope import RunRequest

RESERVED_KEYS = ("id",)


def parse_request(obj: dict, index: int = 0) -> RunRequest:
    """Build a :class:`RunRequest` from one decoded JSONL object.

    ``index`` (the 1-based input line number when coming from
    :func:`read_requests`) names requests without an explicit ``id``.
    Envelope fields, config fields, scenario, solver and observables
    are all validated here so a typo fails the parse, not the engine.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"request must be a JSON object, got {type(obj).__name__}")
    if "api_version" not in obj and "config" not in obj:
        # Legacy bare-config line (config fields at the top level):
        # deprecated with the v1 envelope, removed now.
        raise ValueError(
            "legacy bare-config request lines are no longer accepted; wrap "
            'the config in a v1 envelope: {"api_version": "v1", "id": ..., '
            '"config": {...}}'
        )
    return RunRequest.from_dict(obj, index=index)


def read_requests(lines: Iterable[str]) -> list[RunRequest]:
    """Parse a JSONL stream; errors carry the 1-based line number."""
    requests: list[RunRequest] = []
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            obj = json.loads(text)
            requests.append(parse_request(obj, index=lineno))
        except (json.JSONDecodeError, ValueError, TypeError) as exc:
            # TypeError covers wrong-typed JSON values (e.g. a string
            # where the config validators compare numbers).
            raise ValueError(f"request line {lineno}: {exc}") from None
    return requests
