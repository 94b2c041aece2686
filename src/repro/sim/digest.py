"""Deterministic trace digests: the fast path's safety net.

The simulation core is allowed to get faster, never different: every
optimization must leave the executions the paper reasons about
byte-for-byte identical.  :func:`trace_digest` condenses a run —
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
``payload_size`` walk after the run.

The byte stream hashed is *defined* as one line per message sent,
``s|src|dst|type|size|send_time|deliver_time``, then one per decision,
then the counters.  The send lines are hashed *at send*: the
:class:`~repro.sim.trace.TraceRecorder`'s send hook feeds them, one
chunk per :class:`~repro.sim.network.FanOut`, into its
``send_hash`` and keeps no record.  :func:`trace_digest` finalizes a
copy of that hash with the decision and counter lines, so the digest
can be read any number of times, also mid-run, and a long run holds
no more than a short one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .events import Simulator
    from .network import NetworkStats
    from .trace import TraceRecorder

__all__ = ["trace_digest", "cluster_digest"]


def trace_digest(
    trace: "TraceRecorder", sim: "Simulator", stats: "NetworkStats"
) -> str:
    """SHA-256 digest of a run's observable behaviour.

    Covers, in order: every send so far, every decision, and the current
    ``(events_processed, now, messages_sent, messages_delivered)``
    counters.  Any reordering of event execution perturbs at least one
    of these (a reordered delivery changes the sends its handler
    performs, or the decision times, or the event count), so equal
    digests mean equal executions for everything the analysis layer
    measures.
    """
    h = trace.send_hash.copy()
    update = h.update
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
