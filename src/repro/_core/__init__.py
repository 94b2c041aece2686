"""The simulation hot path, collected in one dependency-free module.

:mod:`repro._core.pure` holds the measured hot spots of the repository —
the event-loop drain, zero-rule envelope delivery, payload sizing,
canonical serialization and HMAC signing — as small functions with no
intra-repository imports.  This package re-exports them so consumers
(``repro.sim.events``, ``repro.sim.network``, ``repro.crypto.keys``)
import from one place.

There is exactly one implementation; :data:`BACKEND` is the name the
benchmark harness (``benchmarks/e2e/run.py``) checks and reports for it.
"""

from __future__ import annotations

from . import pure
from .pure import (
    FIRED,
    MEMO_LIMIT,
    IdentityMemo,
    SimulationError,
    SimulationTimeout,
    canonical_bytes,
    hmac_sha256,
    make_deliver,
    payload_size,
)

__all__ = [
    "BACKEND",
    "FIRED",
    "MEMO_LIMIT",
    "IdentityMemo",
    "SimulationError",
    "SimulationTimeout",
    "canonical_bytes",
    "hmac_sha256",
    "make_deliver",
    "payload_size",
    "pure",
]

#: Name of the hot-path implementation (also E21's ``backend`` column).
BACKEND = "pure"
