"""Simulation-as-a-service: async HTTP/JSON server over Session + the
trace store (DESIGN.md section 18).

Pure stdlib.  ``repro serve`` runs :func:`serve`; tests embed a server
with :func:`serve_in_thread`.
"""

from .pool import SessionPool, SingleFlight, design_digest
from .server import (
    ReproService,
    ServiceConfig,
    ServiceHandle,
    serve,
    serve_in_thread,
)
from .wire import SCHEMA_VERSION

__all__ = [
    "SCHEMA_VERSION",
    "ReproService",
    "ServiceConfig",
    "ServiceHandle",
    "SessionPool",
    "SingleFlight",
    "design_digest",
    "serve",
    "serve_in_thread",
]
