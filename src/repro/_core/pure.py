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
import functools
import hashlib
import heapq
import hmac as _hmac
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "FIRED",
    "MEMO_LIMIT",
    "IdentityMemo",
    "SimulationError",
    "SimulationTimeout",
    "canonical_bytes",
    "compact",
    "drain",
    "hmac_sha256",
    "make_deliver",
    "payload_size",
    "pin",
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

# A queue entry is ``[time, seq, callback, args]``: the loops below pop it
# and run ``callback(*args)``.  A scheduled event is a zero-argument
# callback with ``args == ()``; a network delivery is the delivery
# function itself with its ``(dst, src, payload)`` (or ``(envelope,)``) —
# the entry *is* the delivery, no closure or ``partial`` wraps it.  Slot 2
# doubles as the entry's state: ``None`` once cancelled, :data:`FIRED`
# once executed.


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
        callback(*entry[3])
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
        callback(*entry[3])


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
        callback(*entry[3])
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
        callback(*entry[3])
        if predicate():
            return sim._now
    raise SimulationTimeout(
        f"predicate not satisfied by time {min(sim._now, timeout)} "
        f"({executed} events executed)"
    )


# ---------------------------------------------------------------------------
# The identity memo shared by both structural walks
# ---------------------------------------------------------------------------

#: Entries an :class:`IdentityMemo` keeps (and so objects it pins) before
#: oldest-first eviction.  Sized from the measured working set of the two
#: SMR benchmark workloads, where a slot's ``Batch`` has to outlive every
#: single-use wrapper, request and reply minted until the slot's last
#: message: walk calls per command stop falling here (sizes 56.6 / 49.4 /
#: 43.0 / 43.0 and bytes 22.5 / 15.7 / 15.7 / 15.7 at 64 / 256 / 512 /
#: 1024 entries on ``smr_steady``; 113.5 / 96.2 / 91.6 / 91.6 and 73.5 /
#: 64.4 / 64.3 / 64.3 on ``smr_durable_faults``) while peak RSS is still
#: within 0.4 MiB of the 256-entry figure on every benchmark workload;
#: past it, entries only pin memory.
MEMO_LIMIT = 512


class IdentityMemo:
    """Bounded identity-keyed memo of one structural walk's results.

    A proposed value rides in Θ(n) distinct messages per slot and is
    signed or verified over Θ(n²) times, and because the simulated
    network passes references it is the *same object* in all of them.
    :func:`payload_size` and :func:`canonical_bytes` therefore consult
    the memo their owner hands them (``Network`` for sizes,
    ``KeyRegistry`` for bytes) at every frozen-dataclass node they
    reach, not just at the top of the walk: a ``Batch`` embedded in a
    freshly minted ``SlotMessage(slot, Ack(batch, view))`` is a hit even
    though the wrappers around it are new.  :meth:`get` is the owners'
    entry point and additionally memoizes the top-level payload whatever
    its type; ``hits`` / ``misses`` count those top-level lookups only.

    Three properties make an identity hit safe:

    * **strong reference** — every entry pins its object, so CPython
      cannot recycle the cached ``id()`` while the entry is alive;
    * **``is``-checked hit** — a lookup additionally requires
      ``entry[0] is obj``, so even an entry that aliases the id of a
      different object can never be served (and the lookup never runs
      user ``__eq__`` code);
    * **admission by proof** — an object is stored only if the walk that
      produced its result met nothing below it but primitives, tuples,
      frozensets and frozen dataclasses.  The walks bump
      :attr:`mutable_seen` whenever they step on anything else (a list,
      dict, set, bytearray, a plain object, a dataclass that is not
      frozen), so "the counter did not move across this subtree" is the
      proof, and it costs the walk nothing extra.  Whatever holds
      something mutable is recomputed on every call: mutating a payload
      after it was signed or sent can never be answered from the stale
      result.  (The proof covers what the walk *reads*: a frozen
      dataclass is trusted to expose its fields through
      ``signing_fields()``, not immutable copies of mutable ones.)

    Eviction is oldest-first (dict insertion order), one entry at a
    time, so a stream of fresh objects can neither grow the memo nor
    flush the entries still in use wholesale.
    """

    __slots__ = ("_walk", "entries", "hits", "misses", "mutable_seen")

    def __init__(self, walk: Callable[[Any, "IdentityMemo"], Any]) -> None:
        self._walk = walk
        #: ``id(obj) -> (obj, result)``.
        self.entries: Dict[int, Tuple[Any, Any]] = {}
        self.hits = 0
        self.misses = 0
        #: Mutable nodes the walks have stepped on so far (monotone).
        self.mutable_seen = 0

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, payload: Any) -> Any:
        """The walk's result for ``payload``, computed at most once while
        the payload stays resident (and afresh each time if it could
        have changed)."""
        entry = self.entries.get(id(payload))
        if entry is not None and entry[0] is payload:
            self.hits += 1
            return entry[1]
        self.misses += 1
        seen = self.mutable_seen
        result = self._walk(payload, self)
        if self.mutable_seen == seen:
            self.admit(payload, result)
        return result

    def admit(self, obj: Any, result: Any) -> None:
        """Store ``result`` for ``obj``; the caller holds the proof."""
        pin(self.entries, obj, result)


def pin(entries: Dict[int, Tuple[Any, Any]], obj: Any, result: Any) -> None:
    """``entries[id(obj)] = (obj, result)`` under :data:`MEMO_LIMIT`,
    evicting the oldest entry when full — the storage rule of every
    identity-keyed table (:class:`IdentityMemo`, ``KeyRegistry``'s
    verdict memo).  The entry pins ``obj``, so the id stays its own; a
    reader must still check ``entry[0] is obj``."""
    key = id(obj)
    # Re-admitting a resident object (a top-level dataclass is admitted
    # by its walk and again by ``get``) overwrites in place.
    if len(entries) >= MEMO_LIMIT and key not in entries:
        del entries[next(iter(entries))]
    entries[key] = (obj, result)


@functools.lru_cache(maxsize=None)
def _dataclass_shape(cls: type) -> Optional[Tuple[Tuple[str, ...], bool]]:
    """``(field names, frozen?)`` of a dataclass type, ``None`` for any
    other type — resolved once per class rather than once per node."""
    if not dataclasses.is_dataclass(cls):
        return None
    names = tuple(f.name for f in dataclasses.fields(cls))
    return names, cls.__dataclass_params__.frozen


# ---------------------------------------------------------------------------
# Envelope payload sizing + zero-rule delivery
# (the hot half of repro.sim.network.Network)
# ---------------------------------------------------------------------------


#: Sizes of the fixed-width primitives, by exact type.
_FIXED_SIZE: Dict[type, int] = {type(None): 1, bool: 1, int: 8, float: 8}


def payload_size(payload: Any, memo: Optional[IdentityMemo] = None) -> int:
    """Deterministic structural size estimate of a payload, in bytes.

    The simulation never serializes messages, so "bytes on the wire" is a
    model, not a measurement: primitives cost their natural width, strings
    and bytes their length, and containers/dataclasses a small framing
    overhead plus the recursive cost of their fields.  The estimate is
    stable across runs and platforms, which is what the bandwidth-style
    metrics (``NetworkStats.bytes_sent``) need.

    Without ``memo`` this is a pure function.  With one (see
    :class:`IdentityMemo`) a frozen-dataclass node already sized is not
    walked again, and the walk records the proof that admits new ones.
    """
    # The fixed-width primitives are answered by exact type, and as
    # fields of a tuple or dataclass added in place rather than by a
    # recursive call; their subclasses (an ``IntEnum``) take the
    # ``isinstance`` tests, to the same answers.
    fixed = _FIXED_SIZE.get(type(payload))
    if fixed is not None:
        return fixed
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + 1
    if isinstance(payload, (tuple, frozenset)):
        size = 2
        for item in payload:
            size += _FIXED_SIZE.get(type(item)) or payload_size(item, memo)
        return size
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, bytes):
        return len(payload)
    shape = _dataclass_shape(type(payload))
    if shape is not None and shape[1]:
        if memo is not None:
            entry = memo.entries.get(id(payload))
            if entry is not None and entry[0] is payload:
                return entry[1]
            seen = memo.mutable_seen
        size = 2
        for name in shape[0]:
            item = getattr(payload, name)
            size += _FIXED_SIZE.get(type(item)) or payload_size(item, memo)
        if memo is not None and memo.mutable_seen == seen:
            memo.admit(payload, size)
        return size
    # Everything from here on can change under a live reference.
    if memo is not None:
        memo.mutable_seen += 1
    if isinstance(payload, bytearray):
        return len(payload)
    if isinstance(payload, (list, set)):
        return 2 + sum(payload_size(item, memo) for item in payload)
    if isinstance(payload, dict):
        return 2 + sum(
            payload_size(k, memo) + payload_size(v, memo)
            for k, v in payload.items()
        )
    if shape is not None:
        return 2 + sum(
            payload_size(getattr(payload, name), memo) for name in shape[0]
        )
    if hasattr(payload, "__dict__"):
        return 2 + sum(payload_size(v, memo) for v in vars(payload).values())
    return len(repr(payload))


def make_deliver(
    handlers: Dict[int, Callable[[int, Any], None]], stats: Any
) -> Callable[[int, int, Any], None]:
    """Build the zero-rule fast-path delivery callback.

    The returned callable is what the network queues, with its
    ``(dst, src, payload)`` arguments beside it in the queue entry, for
    every fast-path send: no envelope, no tracer — look the
    handler up at delivery time (the destination may have shut down
    while the message was in flight), count the delivery, hand the
    payload over.
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


def canonical_bytes(obj: Any, memo: Optional[IdentityMemo] = None) -> bytes:
    """Deterministically serialize a message payload for signing.

    Supports the value types protocol messages are built from: ``None``,
    ``bool``, ``int``, ``float``, ``str``, ``bytes``, tuples/lists, frozensets
    (sorted by serialization), dicts (sorted by key serialization), and any
    object exposing ``signing_fields()`` (the protocol dataclasses).
    Type tags prevent cross-type collisions such as ``1`` vs ``"1"``.

    Without ``memo`` this is a pure function.  With one (see
    :class:`IdentityMemo`) a frozen-dataclass node already serialized is
    not walked again, and the walk records the proof that admits new ones.
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
        if memo is not None and isinstance(obj, list):
            memo.mutable_seen += 1
        parts = [canonical_bytes(item, memo) for item in obj]
        body = b"".join(parts)
        return b"T" + len(parts).to_bytes(4, "big") + body
    if isinstance(obj, (set, frozenset)):
        if memo is not None and isinstance(obj, set):
            memo.mutable_seen += 1
        parts = sorted(canonical_bytes(item, memo) for item in obj)
        body = b"".join(parts)
        return b"E" + len(parts).to_bytes(4, "big") + body
    if isinstance(obj, dict):
        if memo is not None:
            memo.mutable_seen += 1
        items = sorted(
            (canonical_bytes(k, memo), canonical_bytes(v, memo))
            for k, v in obj.items()
        )
        body = b"".join(k + v for k, v in items)
        return b"D" + len(items).to_bytes(4, "big") + body
    if memo is not None:
        entry = memo.entries.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
        seen = memo.mutable_seen
    fields = getattr(obj, "signing_fields", None)
    if callable(fields):
        tag = type(obj).__name__.encode()
        body = canonical_bytes(fields(), memo)
        data = b"O" + len(tag).to_bytes(2, "big") + tag + body
        if memo is not None:
            shape = _dataclass_shape(type(obj))
            if shape is None or not shape[1]:
                memo.mutable_seen += 1  # attributes can be reassigned
            elif memo.mutable_seen == seen:
                memo.admit(obj, data)
        return data
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def hmac_sha256(secret: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 digest — the simulated signature primitive."""
    return _hmac.new(secret, message, hashlib.sha256).digest()
