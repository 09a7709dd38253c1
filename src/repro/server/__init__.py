"""Networked simulation service: the ``repro serve --listen`` tier.

A stdlib-only asyncio HTTP server exposing one shared
:class:`~repro.service.service.SimulationService` over the public v1
envelope — ``POST /v1/run``, ``POST /v1/batch`` (JSONL),
``GET /v1/health`` and ``GET /v1/metrics`` — with bounded admission +
load-shedding (``shed`` status, 503), per-request execution timeouts
(``timeout`` status, 504), connection limits and graceful drain.
Remote results are bitwise identical to in-process runs of the same
configs; clients connect with
``repro.api.Client.connect("http://host:port")``.
"""

from repro.server.app import (
    HTTP_FOR_STATUS,
    SimulationServer,
    serve_in_thread,
)
from repro.server.http import BadRequest, HttpRequest, read_request, response_bytes

__all__ = [
    "HTTP_FOR_STATUS",
    "BadRequest",
    "HttpRequest",
    "SimulationServer",
    "read_request",
    "response_bytes",
    "serve_in_thread",
]
