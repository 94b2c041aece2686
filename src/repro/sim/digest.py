"""Deterministic trace digests: the fast path's safety net.

The simulation core is allowed to get faster, never different: every
optimization must leave the executions the paper reasons about
byte-for-byte identical.  :func:`trace_digest` condenses a finished run —
every send (endpoints, payload type, accounted size, send and delivery
times), every decision, and the final event-loop counters — into one
SHA-256 hex digest.  Two runs of the same scenario must produce the same
digest; the golden digests recorded against the pre-optimization core
(``tests/golden/scenario_digests.json``) pin the fast path to the slow
path's executions forever.

The digest deliberately hashes payload *type names and sizes* rather
than ``repr`` of payloads: reprs of sets and frozensets depend on
``PYTHONHASHSEED`` across interpreter processes, while type names, sizes
and times are stable everywhere.  Decision values are hashed via ``repr``
— decided values in this codebase are strings, tuples and ``Batch``
dataclasses, all with order-stable reprs.

The size is ``FanOut.size``: the structural size the network charged to
``NetworkStats.bytes_sent`` per copy when the message was sent, not a
``payload_size`` walk after the run.  The two are equal because payloads
are immutable once sent (frozen dataclasses over tuples and primitives —
a message on the wire cannot change).  A digest that moves when nothing
else did therefore means some payload *was* mutated between send and end
of run: an aliasing bug, not a stale golden.

The byte stream hashed is *defined* as one line per message sent,
``s|src|dst|type|size|send_time|deliver_time``, then one per decision,
then the counters.  It is *produced* per recorded
:class:`~repro.sim.network.FanOut`: everything but ``dst`` and
``deliver_time`` is formatted once per record, and SHA-256 is fed one
chunk per record, never per trace — the digest streams, and a long run
does not cost its trace's size again in memory.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .events import Simulator
    from .network import NetworkStats
    from .trace import TraceRecorder

__all__ = ["trace_digest", "cluster_digest"]


def trace_digest(
    trace: "TraceRecorder", sim: "Simulator", stats: "NetworkStats"
) -> str:
    """SHA-256 digest of a run's observable behaviour.

    Covers, in order: every recorded send, every decision, and the final
    ``(events_processed, now, messages_delivered)`` counters.  Any
    reordering of event execution perturbs at least one of these (a
    reordered delivery changes the sends its handler performs, or the
    decision times, or the event count), so equal digests mean equal
    executions for everything the analysis layer measures.
    """
    h = hashlib.sha256()
    update = h.update
    # One line per message; ``head``/``tail`` are the parts a fan-out's
    # messages share, ``lines`` its chunk.  A plain loop, not a
    # comprehension: the digest is two Python frames per run.
    for src, dsts, payload, send_time, deliver_times, size in trace.fan_outs:
        head = f"s|{src}|"
        tail = f"|{type(payload).__name__}|{size}|{send_time!r}|"
        lines: List[str] = []
        for dst, deliver_time in zip(dsts, deliver_times):
            lines.append(f"{head}{dst}{tail}{deliver_time!r}\n")
        update("".join(lines).encode())
    for decision in trace.decisions:
        update(
            f"d|{decision.pid}|{decision.value!r}|{decision.time!r}\n".encode()
        )
    update(
        (
            f"e|{sim.events_processed}|{sim.now!r}"
            f"|{stats.messages_sent}|{stats.messages_delivered}\n"
        ).encode()
    )
    return h.hexdigest()


def cluster_digest(cluster) -> str:
    """Digest of a finished :class:`~repro.sim.runner.Cluster` run."""
    return trace_digest(cluster.trace, cluster.sim, cluster.network.stats)
