"""Key management for the simulated signature scheme.

The paper assumes each process holds a private key whose public counterpart
everyone knows, and a computationally bounded adversary that cannot forge
correct processes' signatures.  Inside a deterministic simulation we get
the same guarantee *by construction*: a :class:`KeyRegistry` holds one
secret per process, signing requires the secret, and the adversary API only
ever hands Byzantine processes their own :class:`Signer`.  Verification
needs no secret — it goes through the registry, mirroring public keys.

The scheme is HMAC-like (SHA-256 over secret || canonical message bytes).
It is *not* cryptographically meaningful outside the simulation and is not
intended to be; see DESIGN.md's substitution table.

The two hot primitives — canonical serialization and the HMAC digest —
live with the rest of the hot path in :mod:`repro._core`.  On top of them
the registry avoids repeated work in three ways:

* a bounded identity-keyed **verdict memo**: the protocols are
  all-to-all, so every one of ``n`` processes checks the *same*
  ``Signature`` object (or the same certificate's signatures tuple)
  over the same value objects.  The first check that succeeds records
  ``id(signature) -> (signature, payload)``; a later check whose
  signature ``is`` that object and whose payload is that object — or a
  plain tuple of the very same element objects, since every receiver
  rebuilds ``("ack", value, view)`` afresh — is answered ``True`` from
  one dict lookup, with no canonical walk, hash or HMAC.  An entry is
  admitted only when the canonical walk just proved the payload
  immutable and the signature is exactly the frozen :class:`Signature`
  over ``int``/``bytes``; everything else — first sight, a look-alike
  object with an equal digest, an equal-but-not-identical element
  (``1`` vs ``True``), a payload holding a list, any failure — takes
  the full path below, every time;
* a bounded :class:`repro._core.IdentityMemo` keyed on object
  *identity* and consulted at every frozen-dataclass node of the walk
  (entries pin their object, hits require an ``is`` check, and only
  objects the walk proved immutable are stored, so a hit can never be
  stale): a value signed inside many different payloads is serialized
  once;
* batched :meth:`KeyRegistry.verify_all`, which canonicalizes and hashes
  the payload once per certificate instead of once per signature.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass
from operator import is_
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from .._core import IdentityMemo, canonical_bytes, hmac_sha256, pure

__all__ = [
    "KeyRegistry",
    "Signature",
    "Signer",
    "canonical_bytes",
]

ProcessId = int


@dataclass(frozen=True)
class Signature:
    """A signature over some payload by ``signer``.

    The ``digest`` binds signer, payload and the registry's domain tag.
    Signatures are values: hashable, comparable, safe to embed in messages.
    """

    signer: ProcessId
    digest: bytes

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.signer, self.digest)


def _is_frozen_signature(signature: Any) -> bool:
    """``signature`` is exactly a :class:`Signature` over plain
    ``int``/``bytes`` — nothing about it can change under a reference."""
    return (
        type(signature) is Signature
        and type(signature.signer) is int
        and type(signature.digest) is bytes
    )


def _same_payload(cached: Any, payload: Any) -> bool:
    """``payload`` is the cached payload object itself, or a plain tuple
    of the very objects the cached plain tuple holds.  Identity, never
    equality: ``1``, ``True`` and ``1.0`` are equal and serialize
    differently."""
    return cached is payload or (
        type(payload) is tuple
        and type(cached) is tuple
        and len(payload) == len(cached)
        and all(map(is_, cached, payload))
    )


class Signer:
    """Signing capability for one process.  Hand it only to its owner."""

    def __init__(
        self,
        pid: ProcessId,
        secret: bytes,
        canonical: Callable[[Any], bytes] = canonical_bytes,
    ) -> None:
        self._pid = pid
        self._secret = secret
        #: The registry's canonical serializer (its memo), so a leader
        #: that signs a payload and immediately verifies relayed
        #: signatures over it serializes the object once.
        self._canonical = canonical

    @property
    def pid(self) -> ProcessId:
        return self._pid

    def sign(self, payload: Any) -> Signature:
        digest = hmac_sha256(self._secret, self._canonical(payload))
        return Signature(signer=self._pid, digest=digest)


class KeyRegistry:
    """Key material for a set of processes plus public verification.

    >>> reg = KeyRegistry.for_processes(range(4))
    >>> sig = reg.signer(2).sign(("propose", "x", 1))
    >>> reg.verify(sig, ("propose", "x", 1))
    True
    >>> reg.verify(sig, ("propose", "y", 1))
    False

    Verification results are memoized per ``(signer, digest)``: protocols
    re-validate the same certificate signatures many times (every replica
    checks every signature of every certificate it relays, and the SMR
    layer multiplies that by slots and batches), so a successful
    verification records the payload hash the digest was checked against
    and later calls skip the HMAC recomputation.  A signature can only
    ever verify against one payload (the digest binds it), so a cache hit
    with a *different* payload hash is a definitive ``False``.

    The memo is a bounded LRU: a long workload signs an unbounded stream
    of distinct payloads (every slot, batch and checkpoint vote mints new
    signatures), so at ``CACHE_LIMIT`` entries the least-recently-used
    one is evicted (counted in ``cache_evictions``) instead of growing —
    or, as before this cap, periodically dropping the whole cache, which
    threw away exactly the hot certificate entries the memo exists for.

    In front of both sits the identity-keyed verdict memo described in
    the module docstring: a repeat check of the same signature *object*
    over the same payload objects returns ``True`` without serializing
    anything.  It counts as a cache hit (``len(signatures)`` of them for
    a certificate), exactly as the ``(signer, digest)`` memo would have
    counted it, so the counters do not depend on which memo answered.

    Canonicalization is shared the same way: one *object* — a payload,
    or a value embedded in many payloads — is serialized once across
    sign/verify/verify_all (``IdentityMemo``: bounded, identity-keyed,
    provably immutable objects only), and :meth:`verify_all`
    canonicalizes and hashes the payload once per call instead of once
    per signature.
    """

    #: Entries kept before least-recently-used eviction kicks in.
    CACHE_LIMIT = 1 << 16

    def __init__(self, domain: bytes = b"repro-fbft") -> None:
        self._domain = domain
        self._secrets: Dict[ProcessId, bytes] = {}
        #: (signer, signature digest) -> sha256 of the canonical payload
        #: bytes that this digest successfully verified against; ordered
        #: oldest-use-first for LRU eviction.
        self._verify_cache: "OrderedDict[Tuple[ProcessId, bytes], bytes]" = (
            OrderedDict()
        )
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: :meth:`verify_all` invocations.
        self.batch_verifies = 0
        #: Read off the module, like ``Network``'s size memo, so a test
        #: instrumenting ``pure.canonical_bytes`` sees every call.
        self._canonical_memo = IdentityMemo(pure.canonical_bytes)
        self._canonical: Callable[[Any], bytes] = self._canonical_memo.get
        #: ``id(obj) -> (obj, payload)`` for each signature (``verify``)
        #: or signatures tuple (``verify_all``) that verified over
        #: ``payload``: the verdict ``True``, shared by object identity.
        #: Admission needs the caller's proof that neither can change —
        #: the canonical walk met nothing mutable in ``payload`` and
        #: ``obj`` is frozen through and through; the entry pins both,
        #: under the bound and eviction of every ``IdentityMemo``
        #: (``pure.pin``).
        self._verdicts: Dict[int, Tuple[Any, Any]] = {}

    @classmethod
    def for_processes(
        cls, pids: Iterable[ProcessId], domain: bytes = b"repro-fbft"
    ) -> "KeyRegistry":
        registry = cls(domain=domain)
        for pid in pids:
            registry.add_process(pid)
        return registry

    def add_process(self, pid: ProcessId) -> None:
        if pid in self._secrets:
            raise ValueError(f"process {pid} already has a key")
        # Deterministic per-process secret: fine inside the simulation, the
        # adversary has no oracle access to the registry internals.
        self._secrets[pid] = hashlib.sha256(
            self._domain + b"|" + str(pid).encode()
        ).digest()

    @property
    def process_ids(self) -> Tuple[ProcessId, ...]:
        return tuple(sorted(self._secrets))

    @property
    def canonical_hits(self) -> int:
        """Top-level canonical-memo hits (one lookup per sign / verify /
        verify_all); hits on nodes inside a walk do not count."""
        return self._canonical_memo.hits

    @property
    def canonical_misses(self) -> int:
        """Top-level canonical-memo lookups that had to serialize."""
        return self._canonical_memo.misses

    def signer(self, pid: ProcessId) -> Signer:
        """Return the signing capability of ``pid`` (private: owner only)."""
        if pid not in self._secrets:
            raise KeyError(f"no key for process {pid}")
        return Signer(pid, self._secrets[pid], self._canonical)

    def verify(self, signature: Signature, payload: Any) -> bool:
        """Check that ``signature`` is ``signer``'s signature over ``payload``."""
        entry = self._verdicts.get(id(signature))
        if (
            entry is not None
            and entry[0] is signature
            and _same_payload(entry[1], payload)
        ):
            self.cache_hits += 1
            return True
        secret = self._secrets.get(signature.signer)
        if secret is None:
            return False
        memo = self._canonical_memo
        seen = memo.mutable_seen
        valid = self._verify_message(
            signature, secret, self._canonical(payload), None
        )
        if (
            valid
            and memo.mutable_seen == seen
            and _is_frozen_signature(signature)
        ):
            pure.pin(self._verdicts, signature, payload)
        return valid

    def _verify_message(
        self,
        signature: Signature,
        secret: bytes,
        message: bytes,
        msg_hash: Optional[bytes],
    ) -> bool:
        """Verify one signature over pre-canonicalized ``message`` bytes.

        ``msg_hash`` is the batch-level sha256 of ``message`` when the
        caller already computed it (verify_all), else it is derived
        lazily — only the paths that actually compare or store a payload
        hash pay for it.
        """
        key = (signature.signer, signature.digest)
        cached = self._verify_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._verify_cache.move_to_end(key)
            if msg_hash is None:
                msg_hash = hashlib.sha256(message).digest()
            return hmac.compare_digest(cached, msg_hash)
        self.cache_misses += 1
        expected = hmac_sha256(secret, message)
        valid = hmac.compare_digest(expected, signature.digest)
        if valid:
            while len(self._verify_cache) >= self.CACHE_LIMIT:
                self._verify_cache.popitem(last=False)
                self.cache_evictions += 1
            if msg_hash is None:
                msg_hash = hashlib.sha256(message).digest()
            self._verify_cache[key] = msg_hash
        return valid

    def verify_all(self, signatures: Iterable[Signature], payload: Any) -> bool:
        """Check every signature in the set verifies over ``payload``.

        Batched: the payload is canonicalized and hashed **once per
        call**, not once per signature — a certificate's 2f+1 signatures
        share one serialization.  Short-circuits on the first failure,
        exactly like ``all(self.verify(sig, payload) for sig in ...)``.
        """
        self.batch_verifies += 1
        entry = self._verdicts.get(id(signatures))
        if (
            entry is not None
            and entry[0] is signatures
            and _same_payload(entry[1], payload)
        ):
            self.cache_hits += len(signatures)
            return True
        memo = self._canonical_memo
        seen = memo.mutable_seen
        message: Optional[bytes] = None
        msg_hash: Optional[bytes] = None
        for signature in signatures:
            secret = self._secrets.get(signature.signer)
            if secret is None:
                return False
            if message is None:
                message = self._canonical(payload)
                msg_hash = hashlib.sha256(message).digest()
            if not self._verify_message(signature, secret, message, msg_hash):
                return False
        if (
            message is not None
            and memo.mutable_seen == seen
            and type(signatures) is tuple
            and all(map(_is_frozen_signature, signatures))
        ):
            pure.pin(self._verdicts, signatures, payload)
        return True
