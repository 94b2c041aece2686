"""The simulation hot path: event loop, delivery, sizing, canonical bytes.

This module collects the *measured* hot spots of the repository — the
event-loop drain used by :mod:`repro.sim.events`, the zero-rule envelope
delivery and payload sizing used by :mod:`repro.sim.network`, and
canonical serialization + HMAC signing used by :mod:`repro.crypto.keys` —
as small, tight functions with no intra-repository imports.

Two outputs of this file are formats other artifacts depend on:
``canonical_bytes`` is what signatures, state digests, WAL records and
checkpoint files are computed over, and ``payload_size`` is the byte
model behind every bandwidth metric.  Both are pinned to literal vectors
in ``tests/golden/canonical_vectors.json``; event order is pinned for
whole scenario runs by the golden trace digests in ``tests/golden/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import hmac as _hmac
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "FIRED",
    "SIZE_MEMO_LIMIT",
    "CanonicalMemo",
    "SimulationError",
    "SimulationTimeout",
    "canonical_bytes",
    "compact",
    "drain",
    "hmac_sha256",
    "make_deliver",
    "payload_size",
    "payload_size_cached",
    "run_bounded",
    "run_pred",
    "step",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation core."""


class SimulationTimeout(SimulationError):
    """Raised by ``Simulator.run_until`` when the predicate never holds."""


#: Stamped into an entry's callback slot once it has been executed, so a
#: late ``cancel()`` on a handle whose event already fired is a no-op
#: instead of corrupting the cancelled-entry accounting (the entry is no
#: longer in the queue, so it must not count toward compaction).
FIRED: Any = object()


# ---------------------------------------------------------------------------
# Event loop: heap push/pop/compact and the drain loops
# (the hot half of repro.sim.events.Simulator)
# ---------------------------------------------------------------------------


def compact(queue: List[List[Any]]) -> None:
    """Drop cancelled entries from ``queue`` and re-heapify, in place.

    Heap order is a function of the ``(time, seq)`` keys only, so
    rebuilding the heap from the surviving entries cannot perturb the
    pop order — determinism is unaffected.  The rebuild is in place
    (slice assignment): the run loops hold a direct reference to the
    queue list, and a cancel from inside a callback must not strand
    them on a stale copy.
    """
    queue[:] = [entry for entry in queue if entry[2] is not None]
    heapq.heapify(queue)


def step(sim: Any) -> bool:
    """Execute the single next live event of ``sim``; ``False`` if empty."""
    queue = sim._queue
    while queue:
        entry = heapq.heappop(queue)
        callback = entry[2]
        if callback is None:
            sim._cancelled -= 1
            continue
        entry[2] = FIRED
        sim._now = entry[0]
        sim._events_processed += 1
        callback()
        return True
    return False


def drain(sim: Any) -> None:
    """Unbounded drain: run every queued event of ``sim`` in order.

    The common case, with no per-event bound checks and no peek-then-pop
    double touch.  Mutates ``sim._now`` / ``sim._events_processed`` /
    ``sim._cancelled`` exactly like :func:`step`.
    """
    queue = sim._queue
    heappop = heapq.heappop
    while queue:
        entry = heappop(queue)
        callback = entry[2]
        if callback is None:
            sim._cancelled -= 1
            continue
        entry[2] = FIRED
        sim._now = entry[0]
        sim._events_processed += 1
        callback()


def run_bounded(
    sim: Any, until: Optional[float], max_events: Optional[int]
) -> None:
    """Bounded run: stop at simulation time ``until`` and/or raise after
    ``max_events`` executed events (the runaway-protocol guard)."""
    queue = sim._queue
    heappop = heapq.heappop
    executed = 0
    while queue:
        entry = queue[0]
        callback = entry[2]
        if callback is None:
            heappop(queue)
            sim._cancelled -= 1
            continue
        time = entry[0]
        if until is not None and time > until:
            sim._now = max(sim._now, until)
            return
        if max_events is not None and executed >= max_events:
            raise SimulationError(
                f"exceeded max_events={max_events} at time {sim._now}"
            )
        heappop(queue)
        entry[2] = FIRED
        sim._now = time
        sim._events_processed += 1
        executed += 1
        callback()
    if until is not None:
        sim._now = max(sim._now, until)


def run_pred(
    sim: Any,
    predicate: Callable[[], bool],
    timeout: float,
    max_events: int,
) -> float:
    """Run ``sim`` until ``predicate()`` holds; return the time it did.

    Raises :class:`SimulationTimeout` if the queue drains or the
    simulated ``timeout`` passes first, :class:`SimulationError` past
    ``max_events``.
    """
    queue = sim._queue
    heappop = heapq.heappop
    executed = 0
    if predicate():
        return sim._now
    while queue:
        entry = queue[0]
        callback = entry[2]
        if callback is None:
            heappop(queue)
            sim._cancelled -= 1
            continue
        time = entry[0]
        if time > timeout:
            break
        if executed >= max_events:
            raise SimulationError(
                f"exceeded max_events={max_events} at time {sim._now}"
            )
        heappop(queue)
        entry[2] = FIRED
        sim._now = time
        sim._events_processed += 1
        executed += 1
        callback()
        if predicate():
            return sim._now
    raise SimulationTimeout(
        f"predicate not satisfied by time {min(sim._now, timeout)} "
        f"({executed} events executed)"
    )


# ---------------------------------------------------------------------------
# Envelope payload sizing + zero-rule delivery
# (the hot half of repro.sim.network.Network)
# ---------------------------------------------------------------------------


def payload_size(payload: Any) -> int:
    """Deterministic structural size estimate of a payload, in bytes.

    The simulation never serializes messages, so "bytes on the wire" is a
    model, not a measurement: primitives cost their natural width, strings
    and bytes their length, and containers/dataclasses a small framing
    overhead plus the recursive cost of their fields.  The estimate is
    stable across runs and platforms, which is what the bandwidth-style
    metrics (``NetworkStats.bytes_sent``) need.
    """
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 8
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + 1
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return 2 + sum(payload_size(item) for item in payload)
    if isinstance(payload, dict):
        return 2 + sum(
            payload_size(k) + payload_size(v) for k, v in payload.items()
        )
    if dataclasses.is_dataclass(payload):
        return 2 + sum(
            payload_size(getattr(payload, f.name))
            for f in dataclasses.fields(payload)
        )
    if hasattr(payload, "__dict__"):
        return 2 + sum(payload_size(v) for v in vars(payload).values())
    return len(repr(payload))


#: Entries kept in the payload-size memo before eviction.  Broadcasts
#: repopulate it in one miss per distinct payload, so a small bound keeps
#: the strong references negligible.
SIZE_MEMO_LIMIT = 16


def payload_size_cached(
    memo: Dict[int, Tuple[Any, int]], stats: Any, payload: Any
) -> int:
    """Bounded identity-keyed payload-size memo with safe keying.

    CPython reuses ``id()`` values as soon as an object is garbage
    collected, so a bare ``{id: size}`` mapping can alias a brand-new
    payload to a stale size.  Two properties make this memo safe:

    * every entry keeps a **strong reference** to its payload, so the
      cached id cannot be reused while the entry is alive;
    * a hit additionally requires ``entry[0] is payload`` — even a
      stale entry (whose payload since died *after* eviction elsewhere)
      can never be returned for a different object.

    Eviction is oldest-first (dict insertion order) one entry at a time,
    not a wholesale clear: interleaved broadcasts of a few distinct
    payloads (client request + replica gossip in the same tick) keep
    their entries instead of thrashing the whole memo.
    """
    entry = memo.get(id(payload))
    if entry is not None and entry[0] is payload:
        stats.size_cache_hits += 1
        return entry[1]
    size = payload_size(payload)
    if len(memo) >= SIZE_MEMO_LIMIT:
        del memo[next(iter(memo))]
    memo[id(payload)] = (payload, size)
    stats.size_cache_misses += 1
    return size


def make_deliver(
    handlers: Dict[int, Callable[[int, Any], None]], stats: Any
) -> Callable[[int, int, Any], None]:
    """Build the zero-rule fast-path delivery callback.

    The returned callable is what the network posts (via
    ``functools.partial``) for every fast-path send: no envelope, no
    log, no tracer — look the handler up at delivery time (the
    destination may have shut down while the message was in flight),
    count the delivery, hand the payload over.
    """

    def deliver(dst: int, src: int, payload: Any) -> None:
        handler = handlers.get(dst)
        if handler is None:
            return  # destination shut down after the message was sent
        stats.messages_delivered += 1
        handler(src, payload)

    return deliver


# ---------------------------------------------------------------------------
# Canonical serialization + HMAC signing
# (the hot half of repro.crypto.keys)
# ---------------------------------------------------------------------------


def canonical_bytes(obj: Any) -> bytes:
    """Deterministically serialize a message payload for signing.

    Supports the value types protocol messages are built from: ``None``,
    ``bool``, ``int``, ``float``, ``str``, ``bytes``, tuples/lists, frozensets
    (sorted by serialization), dicts (sorted by key serialization), and any
    object exposing ``signing_fields()`` (the protocol dataclasses).
    Type tags prevent cross-type collisions such as ``1`` vs ``"1"``.
    """
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"B1" if obj else b"B0"
    if isinstance(obj, int):
        data = str(obj).encode()
        return b"I" + len(data).to_bytes(4, "big") + data
    if isinstance(obj, float):
        data = repr(obj).encode()
        return b"F" + len(data).to_bytes(4, "big") + data
    if isinstance(obj, str):
        data = obj.encode()
        return b"S" + len(data).to_bytes(4, "big") + data
    if isinstance(obj, bytes):
        return b"Y" + len(obj).to_bytes(4, "big") + obj
    if isinstance(obj, (tuple, list)):
        parts = [canonical_bytes(item) for item in obj]
        body = b"".join(parts)
        return b"T" + len(parts).to_bytes(4, "big") + body
    if isinstance(obj, (set, frozenset)):
        parts = sorted(canonical_bytes(item) for item in obj)
        body = b"".join(parts)
        return b"E" + len(parts).to_bytes(4, "big") + body
    if isinstance(obj, dict):
        items = sorted(
            (canonical_bytes(k), canonical_bytes(v)) for k, v in obj.items()
        )
        body = b"".join(k + v for k, v in items)
        return b"D" + len(items).to_bytes(4, "big") + body
    fields = getattr(obj, "signing_fields", None)
    if callable(fields):
        tag = type(obj).__name__.encode()
        body = canonical_bytes(fields())
        return b"O" + len(tag).to_bytes(2, "big") + tag + body
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def hmac_sha256(secret: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 digest — the simulated signature primitive."""
    return _hmac.new(secret, message, hashlib.sha256).digest()


class CanonicalMemo:
    """Bounded ``canonical_bytes`` memo keyed on payload identity.

    Protocols canonicalize the *same payload object* many times in a row:
    ``verify_all`` checks a certificate's 2f+1 signatures over one
    payload, a leader signs what it immediately re-verifies, and the SMR
    layer replays identical batch objects across pipeline stages.  This
    memo collapses those into one serialization.

    Only **hashable** payloads are memoized.  An identity hit returns
    bytes computed earlier, which is sound only if the object cannot have
    changed since — and ``hash(payload)`` succeeding is Python's own
    statement of that: tuples, frozensets and frozen dataclasses of
    hashables all the way down, which is every payload
    :mod:`repro.core.payloads` builds.  Anything holding a list, dict or
    set is canonicalized afresh on every call, so mutating a payload
    after signing it can never verify against the stale bytes.

    Safe lifetime, same discipline as the network's size memo: entries
    hold a strong reference to their payload and a hit requires
    ``entry[0] is payload``, so a recycled ``id()`` can never alias a
    stale serialization.  The lookup is by identity (not equality) so a
    probe never runs user ``__eq__`` code.

    The memo is bounded FIFO: at ``limit`` entries the oldest is evicted
    (insertion order), so an unbounded stream of fresh payloads cannot
    grow it or pin dead objects alive.
    """

    __slots__ = ("_canonical", "_limit", "_memo", "hits", "misses")

    def __init__(
        self,
        limit: int = 256,
        canonical: Callable[[Any], bytes] = canonical_bytes,
    ) -> None:
        if limit < 1:
            raise ValueError("CanonicalMemo limit must be >= 1")
        self._limit = limit
        self._canonical = canonical
        self._memo: Dict[int, Tuple[Any, bytes]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, payload: Any) -> bytes:
        """Canonical serialization of ``payload`` (memoized by identity
        when the payload is hashable, recomputed otherwise)."""
        memo = self._memo
        entry = memo.get(id(payload))
        if entry is not None and entry[0] is payload:
            self.hits += 1
            return entry[1]
        data = self._canonical(payload)
        self.misses += 1
        try:
            hash(payload)
        except TypeError:
            return data  # mutable somewhere inside: never serve it stale
        if len(memo) >= self._limit:
            del memo[next(iter(memo))]
        memo[id(payload)] = (payload, data)
        return data
