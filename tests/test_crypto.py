"""Unit tests for the simulated signature scheme."""

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro._core import MEMO_LIMIT
from repro.core.certificates import CommitCertificate
from repro.core.messages import Ack, Commit, Propose
from repro.crypto.keys import KeyRegistry, Signature, canonical_bytes
from repro.sim.network import payload_size
from repro.smr.replica import Batch

VECTORS_PATH = Path(__file__).parent / "golden" / "canonical_vectors.json"


@pytest.fixture
def registry():
    return KeyRegistry.for_processes(range(4))


class TestSignVerify:
    def test_valid_signature_verifies(self, registry):
        sig = registry.signer(1).sign(("propose", "x", 1))
        assert registry.verify(sig, ("propose", "x", 1))

    def test_wrong_payload_rejected(self, registry):
        sig = registry.signer(1).sign(("propose", "x", 1))
        assert not registry.verify(sig, ("propose", "y", 1))
        assert not registry.verify(sig, ("propose", "x", 2))

    def test_signer_identity_bound(self, registry):
        sig = registry.signer(1).sign("payload")
        forged = Signature(signer=2, digest=sig.digest)
        assert not registry.verify(forged, "payload")

    def test_unknown_signer_rejected(self, registry):
        sig = Signature(signer=99, digest=b"x" * 32)
        assert not registry.verify(sig, "payload")

    def test_signatures_deterministic(self, registry):
        a = registry.signer(0).sign(("x", 1))
        b = registry.signer(0).sign(("x", 1))
        assert a == b

    def test_different_signers_different_digests(self, registry):
        a = registry.signer(0).sign("payload")
        b = registry.signer(1).sign("payload")
        assert a.digest != b.digest

    def test_verify_all(self, registry):
        payload = ("certack", "x", 2)
        sigs = [registry.signer(pid).sign(payload) for pid in range(3)]
        assert registry.verify_all(sigs, payload)
        bad = sigs + [registry.signer(3).sign(("certack", "x", 3))]
        assert not registry.verify_all(bad, payload)

    def test_domain_separation(self):
        a = KeyRegistry.for_processes(range(2), domain=b"domain-a")
        b = KeyRegistry.for_processes(range(2), domain=b"domain-b")
        sig = a.signer(0).sign("payload")
        assert not b.verify(sig, "payload")


class TestVerificationMemoCache:
    def test_repeat_verification_hits_cache(self, registry):
        payload = ("ack", "x", 3)
        sig = registry.signer(2).sign(payload)
        assert registry.verify(sig, payload)
        misses = registry.cache_misses
        for _ in range(5):
            assert registry.verify(sig, payload)
        assert registry.cache_hits >= 5
        assert registry.cache_misses == misses  # no HMAC recomputation

    def test_cache_hit_with_wrong_payload_still_fails(self, registry):
        """A cached (signer, digest) must not leak validity to a different
        payload — the digest binds exactly one message."""
        sig = registry.signer(1).sign(("propose", "x", 1))
        assert registry.verify(sig, ("propose", "x", 1))  # cached
        assert not registry.verify(sig, ("propose", "y", 1))
        assert not registry.verify(sig, ("propose", "x", 2))

    def test_failed_verifications_not_cached(self, registry):
        sig = registry.signer(1).sign("payload")
        forged = Signature(signer=2, digest=sig.digest)
        before = registry.cache_hits
        assert not registry.verify(forged, "payload")
        assert not registry.verify(forged, "payload")
        assert registry.cache_hits == before

    def test_cache_bounded_by_lru_eviction(self):
        """The memo never exceeds CACHE_LIMIT under an unbounded stream of
        distinct signatures (the long-SMR-workload regression): old
        entries are evicted one at a time and counted, not dropped
        wholesale."""
        registry_limit = KeyRegistry.for_processes(range(2))
        registry_limit.CACHE_LIMIT = 4
        for i in range(10):
            sig = registry_limit.signer(0).sign(("p", i))
            assert registry_limit.verify(sig, ("p", i))
        assert len(registry_limit._verify_cache) == 4
        assert registry_limit.cache_evictions == 6
        # The newest entries survived; evicted ones re-verify correctly
        # (as misses) and wrong payloads still fail.
        newest = registry_limit.signer(0).sign(("p", 9))
        hits = registry_limit.cache_hits
        assert registry_limit.verify(newest, ("p", 9))
        assert registry_limit.cache_hits == hits + 1
        oldest = registry_limit.signer(0).sign(("p", 0))
        misses = registry_limit.cache_misses
        assert registry_limit.verify(oldest, ("p", 0))
        assert registry_limit.cache_misses == misses + 1
        assert not registry_limit.verify(oldest, ("p", 1))

    def test_lru_eviction_keeps_recently_used_entries(self):
        """A cache hit refreshes recency: the hot entry survives an
        overflow that evicts colder ones inserted after it."""
        registry_limit = KeyRegistry.for_processes(range(2))
        registry_limit.CACHE_LIMIT = 3
        hot = registry_limit.signer(0).sign(("hot",))
        assert registry_limit.verify(hot, ("hot",))  # insert
        for i in range(2):
            sig = registry_limit.signer(0).sign(("cold", i))
            assert registry_limit.verify(sig, ("cold", i))
        assert registry_limit.verify(hot, ("hot",))  # refresh recency
        sig = registry_limit.signer(0).sign(("cold", 2))
        assert registry_limit.verify(sig, ("cold", 2))  # evicts cold 0
        misses = registry_limit.cache_misses
        assert registry_limit.verify(hot, ("hot",))
        assert registry_limit.cache_misses == misses  # hot survived


class TestRegistry:
    def test_process_ids_sorted(self):
        reg = KeyRegistry.for_processes([3, 1, 2])
        assert reg.process_ids == (1, 2, 3)

    def test_duplicate_process_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.add_process(0)

    def test_missing_signer_raises(self, registry):
        with pytest.raises(KeyError):
            registry.signer(42)


class TestCanonicalBytes:
    def test_primitives_round_trip_distinctly(self):
        values = [None, True, False, 0, 1, -1, 1.5, "1", b"1", "", ()]
        encodings = [canonical_bytes(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_int_vs_string_no_collision(self):
        assert canonical_bytes(1) != canonical_bytes("1")

    def test_bool_vs_int_no_collision(self):
        assert canonical_bytes(True) != canonical_bytes(1)

    def test_nested_structures(self):
        a = canonical_bytes(("x", (1, 2), None))
        b = canonical_bytes(("x", (1, 2), None))
        assert a == b
        assert canonical_bytes(("x", (1, 2))) != canonical_bytes(("x", 1, 2))

    def test_tuple_list_equivalent(self):
        assert canonical_bytes((1, 2)) == canonical_bytes([1, 2])

    def test_set_order_independent(self):
        assert canonical_bytes({1, 2, 3}) == canonical_bytes({3, 2, 1})

    def test_dict_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_length_prefix_prevents_concat_collision(self):
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_objects_with_signing_fields(self):
        sig = Signature(signer=1, digest=b"abc")
        encoded = canonical_bytes(sig)
        assert b"Signature" in encoded
        assert canonical_bytes(sig) == canonical_bytes(
            Signature(signer=1, digest=b"abc")
        )
        assert canonical_bytes(sig) != canonical_bytes(
            Signature(signer=2, digest=b"abc")
        )

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_protocol_messages_canonicalize(self):
        from repro.core.messages import Ack, Propose

        reg = KeyRegistry.for_processes(range(2))
        tau = reg.signer(0).sign(("propose", "x", 1))
        msg = Propose(value="x", view=1, cert=None, tau=tau)
        assert canonical_bytes(msg) == canonical_bytes(
            Propose(value="x", view=1, cert=None, tau=tau)
        )
        assert canonical_bytes(Ack("x", 1)) != canonical_bytes(Ack("x", 2))


class _PlainPayload:
    """Hashable (by identity) yet freely mutable: ``hash()`` succeeding
    proves nothing about it."""

    def __init__(self, x):
        self.x = x

    def signing_fields(self):
        return (self.x,)


@dataclass(eq=False)
class _UnfrozenPayload:
    x: int

    def signing_fields(self):
        return (self.x,)


def _set_x(payload):
    payload.x = 10_000


class TestCanonicalMemo:
    """The bounded identity-keyed serialization memo: one
    canonical_bytes walk per (provably immutable) object across sign /
    verify / verify_all."""

    def test_sign_then_verify_serializes_once(self, registry):
        payload = ("propose", "x", 1)
        sig = registry.signer(1).sign(payload)
        assert registry.canonical_misses == 1
        assert registry.verify(sig, payload)
        assert registry.canonical_misses == 1
        assert registry.canonical_hits == 1

    def test_equal_but_distinct_objects_still_verify(self, registry):
        # Identity keying means a value-equal copy misses the memo but
        # must of course still produce the same canonical bytes.  (Built
        # via tuple() because CPython folds equal tuple *literals* in one
        # code object into a single constant object.)
        first = tuple(["ack", "v", 2])
        copy = tuple(["ack", "v", 2])
        assert first is not copy
        sig = registry.signer(0).sign(first)
        assert registry.verify(sig, copy)
        assert registry.canonical_misses == 2

    def test_memo_is_bounded(self):
        registry = KeyRegistry.for_processes(range(1))
        signer = registry.signer(0)
        for i in range(MEMO_LIMIT + 50):
            signer.sign(("payload", i))
        assert len(registry._canonical_memo) == MEMO_LIMIT

    @pytest.mark.parametrize(
        "make, mutate",
        [
            (lambda: ["transfer", "alice", 10],
             lambda p: p.__setitem__(2, 10_000)),
            (lambda: {"op": "transfer", "amount": 10},
             lambda p: p.__setitem__("amount", 10_000)),
            (lambda: ("transfer", ["alice", 10]),
             lambda p: p[1].__setitem__(1, 10_000)),
            (lambda: _PlainPayload(10), _set_x),
            (lambda: _UnfrozenPayload(10), _set_x),
            (lambda: ("transfer", _PlainPayload(10)),
             lambda p: _set_x(p[1])),
            (lambda: ("transfer", _UnfrozenPayload(10)),
             lambda p: _set_x(p[1])),
        ],
        ids=[
            "list",
            "dict",
            "tuple-containing-list",
            "plain-object",
            "unfrozen-dataclass",
            "tuple-containing-plain-object",
            "tuple-containing-unfrozen-dataclass",
        ],
    )
    def test_payload_mutated_after_signing_fails_verification(
        self, registry, make, mutate
    ):
        """An identity hit must never serve bytes computed before the
        payload changed: a payload that *can* change is not memoized."""
        payload = make()
        sig = registry.signer(0).sign(payload)
        for _ in range(2):  # the repeat is what a verdict memo would serve
            assert registry.verify(sig, payload)
            assert registry.verify_all((sig,), payload)
        assert not registry._verdicts  # True each time, remembered never
        mutate(payload)
        assert not registry.verify(sig, payload)
        assert not registry.verify_all((sig,), payload)
        assert registry.canonical_hits == 0
        # An honest signature over the new contents still verifies.
        assert registry.verify(registry.signer(0).sign(payload), payload)


class TestBatchedVerifyAll:
    """verify_all: canonicalize and hash the payload once per
    certificate, not once per signature."""

    def test_batch_canonicalizes_once(self, registry):
        payload = ("certack", "x", 2)
        sigs = [registry.signer(pid).sign(payload) for pid in range(4)]
        misses_after_sign = registry.canonical_misses
        assert registry.verify_all(sigs, payload)
        assert registry.canonical_misses == misses_after_sign
        assert registry.batch_verifies == 1
        # Per-signature verify results were cached; a second batch over
        # the same certificate is pure cache hits.
        hits_before = registry.cache_hits
        assert registry.verify_all(sigs, payload)
        assert registry.cache_hits == hits_before + len(sigs)

    def test_batch_matches_legacy_loop(self, registry):
        """Batched and per-signature verification must agree on every
        outcome: all-valid, one-invalid, unknown signer, empty set."""
        payload = ("decide", "v", 9)
        other = ("decide", "w", 9)
        sigs = [registry.signer(pid).sign(payload) for pid in range(3)]
        bad = sigs + [registry.signer(3).sign(other)]
        unknown = sigs + [Signature(signer=99, digest=b"x" * 32)]
        cases = [
            (sigs, payload, True),
            (bad, payload, False),
            (unknown, payload, False),
            ([], payload, True),
            (sigs, other, False),
        ]
        for signatures, over, expected in cases:
            loop = all(registry.verify(s, over) for s in signatures)
            assert registry.verify_all(signatures, over) == loop == expected

    def test_short_circuits_on_first_failure(self, registry):
        payload = ("p", 1)
        bad = Signature(signer=0, digest=b"wrong" * 8)
        good = registry.signer(1).sign(payload)
        misses_before = registry.cache_misses
        assert not registry.verify_all([bad, good], payload)
        # Only the failing signature was HMAC-checked.
        assert registry.cache_misses == misses_before + 1


class _DuckSignature:
    """Quacks like a ``Signature`` but its fields can be reassigned."""

    def __init__(self, signer, digest):
        self.signer = signer
        self.digest = digest


class _BytesSubclass(bytes):
    pass


def _canonical_lookups(registry):
    return registry.canonical_hits + registry.canonical_misses


class TestVerdictMemo:
    """The identity-keyed verdict memo: the n-1 later receivers of one
    signature object answer from a dict lookup, and *only* they do —
    first sight, look-alikes and anything that could have changed take
    the full canonicalize-and-compare path."""

    def test_repeat_check_of_the_same_objects_serializes_nothing(self, registry):
        value = "a-value-object"
        sig = registry.signer(1).sign(("ack", value, 1))
        assert registry.verify(sig, ("ack", value, 1))  # first sight: full path
        lookups = _canonical_lookups(registry)
        hits, misses = registry.cache_hits, registry.cache_misses
        for _ in range(5):
            # Every receiver rebuilds the tuple; the elements are shared.
            assert registry.verify(sig, tuple(["ack", value, 1]))
        assert _canonical_lookups(registry) == lookups
        assert registry.cache_hits == hits + 5
        assert registry.cache_misses == misses

    def test_non_tuple_payload_is_matched_by_identity(self, registry):
        payload = Batch(entries=((4, 0, ("set", "k", "v")),))
        sig = registry.signer(0).sign(payload)
        assert registry.verify(sig, payload)
        lookups = _canonical_lookups(registry)
        assert registry.verify(sig, payload)
        assert _canonical_lookups(registry) == lookups
        # The object inside a 1-tuple is a different payload.
        assert not registry.verify(sig, (payload,))

    def test_same_digest_in_a_different_signature_object_is_rechecked(
        self, registry
    ):
        payload = ("ack", "v", 1)
        sig = registry.signer(2).sign(payload)
        assert registry.verify(sig, payload)
        clone = Signature(signer=sig.signer, digest=sig.digest)
        assert clone == sig and clone is not sig
        lookups = _canonical_lookups(registry)
        assert registry.verify(clone, payload)
        assert _canonical_lookups(registry) == lookups + 1

    @pytest.mark.parametrize("lookalike", [True, 1.0], ids=["True", "1.0"])
    def test_equal_but_not_identical_element_is_not_served(
        self, registry, lookalike
    ):
        """``1 == True == 1.0`` but they serialize differently: a memo
        comparing payload elements by equality would answer ``True``."""
        sig = registry.signer(0).sign(("view", 1))
        assert registry.verify(sig, ("view", 1))
        assert registry.verify(sig, ("view", 1))  # now memoized
        assert ("view", lookalike) == ("view", 1)
        assert not registry.verify(sig, ("view", lookalike))
        assert registry.verify(sig, ("view", 1))

    def test_tuple_of_different_length_or_kind_is_not_served(self, registry):
        sig = registry.signer(0).sign(("a", "b"))
        assert registry.verify(sig, ("a", "b"))
        assert not registry.verify(sig, ("a", "b", None))
        assert not registry.verify(sig, ("a",))
        # Lists serialize like tuples, so this verifies — by the full path.
        lookups = _canonical_lookups(registry)
        assert registry.verify(sig, ["a", "b"])
        assert _canonical_lookups(registry) == lookups + 1

    def test_duck_typed_signature_is_never_admitted(self, registry):
        payload = ("ack", "v", 1)
        real = registry.signer(1).sign(payload)
        duck = _DuckSignature(real.signer, real.digest)
        assert registry.verify(duck, payload)
        assert registry.verify(duck, payload)
        assert registry.verify_all((duck,), payload)
        assert not registry._verdicts
        duck.digest = b"x" * 32
        assert not registry.verify(duck, payload)
        assert not registry.verify_all((duck,), payload)

    def test_signature_over_exotic_fields_is_never_admitted(self, registry):
        payload = ("ack", "v", 1)
        real = registry.signer(1).sign(payload)
        odd = Signature(signer=True, digest=real.digest)  # True == 1
        assert registry.verify(odd, payload)
        assert registry.verify(Signature(1, _BytesSubclass(real.digest)), payload)
        assert not registry._verdicts

    def test_failures_are_never_cached(self, registry):
        payload = ("ack", "v", 1)
        wrong = registry.signer(0).sign(("ack", "w", 1))
        forged = Signature(signer=0, digest=b"f" * 32)
        for bad in (wrong, forged):
            misses = registry.cache_misses
            for _ in range(3):
                assert not registry.verify(bad, payload)
                assert not registry.verify_all((bad,), payload)
            assert registry.cache_misses == misses + 6  # HMAC every time
        assert not registry._verdicts
        assert registry.verify(wrong, ("ack", "w", 1))

    def test_certificate_is_keyed_on_its_signatures_tuple(self, registry):
        value = "v"
        payload = ("certack", value, 2)
        sigs = tuple(registry.signer(pid).sign(payload) for pid in range(3))
        assert registry.verify_all(sigs, payload)  # first sight
        lookups = _canonical_lookups(registry)
        hits, misses = registry.cache_hits, registry.cache_misses
        assert registry.verify_all(sigs, tuple(["certack", value, 2]))
        assert _canonical_lookups(registry) == lookups
        assert registry.cache_hits == hits + len(sigs)
        assert registry.cache_misses == misses
        assert registry.batch_verifies == 2
        # An equal tuple that is another object, a list, a generator:
        # same answer, full path (one canonical lookup per call).
        for other in (tuple(list(sigs)), list(sigs), (s for s in sigs)):
            assert other is not sigs
            before = _canonical_lookups(registry)
            assert registry.verify_all(other, payload)
            assert _canonical_lookups(registry) == before + 1
        assert not registry.verify_all(sigs, ("certack", value, 3))
        assert not registry.verify_all(sigs, ("certack", value, True))

    def test_only_a_tuple_of_frozen_signatures_is_admitted(self, registry):
        payload = ("certack", "v", 2)
        sigs = [registry.signer(pid).sign(payload) for pid in range(3)]
        assert registry.verify_all(sigs, payload)  # a list can grow
        duck = _DuckSignature(sigs[0].signer, sigs[0].digest)
        mixed = (duck, sigs[1])
        assert registry.verify_all(mixed, payload)
        assert registry.verify_all((), payload)  # the shared empty tuple
        assert id(sigs) not in registry._verdicts
        assert id(mixed) not in registry._verdicts
        assert id(()) not in registry._verdicts
        duck.digest = b"x" * 32
        assert not registry.verify_all(mixed, payload)
        sigs.append(Signature(signer=3, digest=b"x" * 32))
        assert not registry.verify_all(sigs, payload)

    def test_eviction_at_the_bound(self):
        registry = KeyRegistry.for_processes(range(1))
        signer = registry.signer(0)
        value = "v"
        signed = []
        for view in range(MEMO_LIMIT + 10):
            sig = signer.sign(("ack", value, view))
            assert registry.verify(sig, ("ack", value, view))
            signed.append((sig, view))
        assert len(registry._verdicts) == MEMO_LIMIT
        # Oldest-first: the first ten were pushed out and are re-checked
        # in full; the newest is still answered by identity.
        oldest, view = signed[0]
        lookups = _canonical_lookups(registry)
        assert registry.verify(oldest, ("ack", value, view))
        assert _canonical_lookups(registry) == lookups + 1
        newest, view = signed[-1]
        lookups = _canonical_lookups(registry)
        assert registry.verify(newest, ("ack", value, view))
        assert _canonical_lookups(registry) == lookups
        assert len(registry._verdicts) == MEMO_LIMIT


# ---------------------------------------------------------------------------
# The canonical wire/disk format, pinned to literals
# ---------------------------------------------------------------------------


class _Blob:
    """An object payload sized via the ``__dict__`` fallback path."""

    def __init__(self):
        self.a = 1
        self.b = "two"

    def __repr__(self):
        return "_Blob()"  # the TypeError text embeds it: keep it stable


_TAU = Signature(signer=0, digest=b"\x07" * 32)

#: name -> value; the committed vector file holds name -> expected output.
VECTOR_CORPUS = {
    "none": None,
    "true": True,
    "false": False,
    "int-0": 0,
    "int-1": 1,
    "int-neg-1": -1,
    "int-1e40": 10**40,
    "int-neg-1e40": -(10**40),
    "float-0": 0.0,
    "float-neg-0": -0.0,
    "float-1.5": 1.5,
    "float-neg-2.75": -2.75,
    "float-1e300": 1e300,
    "float-denormal": 5e-324,
    "str-empty": "",
    "str-ascii": "hello",
    "str-unicode": "héllo wörld ☃",
    "bytes-empty": b"",
    "bytes-raw": b"\x00\xff raw",
    "tuple-empty": (),
    "tuple-mixed": (1, "a", None),
    "list-nested": [1, [2, [3]]],
    "set-ints": {1, 2, 3},
    "frozenset-strs": frozenset({"a", "b"}),
    "dict-unsorted": {"b": 2, "a": 1},
    "dict-nested": {("k", 1): [True, None], "nested": {"x": b"y"}},
    "signature": Signature(signer=3, digest=b"\x01" * 32),
    "tuple-with-signature": (
        "msg", Signature(signer=0, digest=b"d"), {7: (8.5, "x")}
    ),
    "propose": Propose(value="x", view=1, cert=None, tau=_TAU),
    "ack": Ack("x", 1),
    # The certificate names the value and view; the message holds only it.
    "commit": Commit(cert=CommitCertificate(
        value="x", view=2,
        signatures=(
            Signature(signer=2, digest=b"\x02" * 32),
            Signature(signer=1, digest=b"\x01" * 32),
        ),
    )),
    "batch": Batch(entries=((4, 0, ("set", "k", 1)), (5, 2, ("get", "k")))),
    # Not canonicalizable (the vector pins the TypeError text), but
    # sized: bytearray by length, _Blob via __dict__, complex via repr.
    "bytearray": bytearray(b"mutable"),
    "blob": _Blob(),
    "complex": complex(1, 2),
}


def _vector_of(value):
    try:
        canonical = {"canonical": canonical_bytes(value).hex()}
    except TypeError as exc:
        canonical = {"error": str(exc)}
    return {**canonical, "size": payload_size(value)}


def write_canonical_vectors():
    """Regenerate ``tests/golden/canonical_vectors.json`` (see
    :func:`test_canonical_vector`)."""
    vectors = {
        name: _vector_of(value) for name, value in VECTOR_CORPUS.items()
    }
    VECTORS_PATH.write_text(
        json.dumps(vectors, indent=1) + "\n", encoding="utf-8"
    )


@pytest.mark.parametrize("name", sorted(VECTOR_CORPUS))
def test_canonical_vector(name):
    """``canonical_bytes`` and ``payload_size`` against committed literals.

    Signatures and ``state_digest`` (the digest checkpoint votes and
    certificates bind) are computed over ``canonical_bytes``, and every
    bandwidth metric over ``payload_size`` — so a change to either
    output is a wire format change, not a refactor.  If one is intended,
    regenerate the vectors and review the diff::

        PYTHONPATH=src python -c "from tests.test_crypto import \\
            write_canonical_vectors as w; w()"
    """
    vectors = json.loads(VECTORS_PATH.read_text(encoding="utf-8"))
    assert sorted(vectors) == sorted(VECTOR_CORPUS)
    assert _vector_of(VECTOR_CORPUS[name]) == vectors[name]
