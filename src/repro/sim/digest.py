"""Deterministic trace digests: the fast path's safety net.

The simulation core is allowed to get faster, never different: every
optimization must leave the executions the paper reasons about
byte-for-byte identical.  :func:`trace_digest` condenses a run —
every send (endpoints, payload type, accounted size, send and delivery
times), every decision, and the final event-loop counters — into one
SHA-256 hex digest.  Two runs of the same scenario must produce the same
digest; the golden digests (``tests/golden/scenario_digests.json``) pin
every later core to the executions they record.

The digest deliberately hashes payload *type names and sizes* rather
than ``repr`` of payloads: reprs of sets and frozensets depend on
``PYTHONHASHSEED`` across interpreter processes, while type names, sizes
and times are stable everywhere.  Decision values are hashed via ``repr``
— decided values in this codebase are strings, tuples and ``Batch``
dataclasses, all with order-stable reprs.

The byte stream hashed is *defined* as follows.  Integers are
little-endian, times IEEE 754 float64, and nothing is padded.  In send
order:

* before a payload type's first send, a **name record**: the tag
  ``b"n"``, a uint32 length and the type's UTF-8 ``__name__``.  The type
  gets the next **type index** (0, 1, ... by first send), so a renamed
  type moves the digest;
* per message sent, a 45-byte **send row**: the tag ``b"s"``, then
  ``src`` (int64), the type index (uint32), ``size`` (int64,
  ``FanOut.size``: what the network charged one copy), ``send_time``
  (float64), ``dst`` (int64) and ``deliver_time`` (float64).  A fan-out
  to ``k`` recipients is the ``k`` rows of its ``k`` sends.  A time is
  packed as a float, so ``2`` and ``2.0`` are one instant and hash
  alike (``0.0`` and ``-0.0`` differ in their bits, and do not);

then a text line per decision, ``d|pid|value|time\\n`` (``repr`` of
value and time), and one of counters,
``e|events_processed|now|messages_sent|messages_delivered\\n``.

The rows are hashed *at send*: the
:class:`~repro.sim.trace.TraceRecorder`'s send hook feeds them into its
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
