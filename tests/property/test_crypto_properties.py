"""Property-based tests for canonical serialization and signatures."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._core import MEMO_LIMIT, IdentityMemo, payload_size
from repro.crypto.keys import KeyRegistry, Signature, canonical_bytes

from helpers import examples

REGISTRY = KeyRegistry.for_processes(range(8))

# Payload values that protocol messages are composed of.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63),
    st.text(max_size=40),
    st.binary(max_size=40),
)
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestCanonicalBytes:
    @given(payloads)
    @settings(max_examples=examples(150), deadline=None)
    def test_deterministic(self, payload):
        assert canonical_bytes(payload) == canonical_bytes(payload)

    @given(payloads, payloads)
    @settings(max_examples=examples(150), deadline=None)
    def test_injective_on_distinct_values(self, a, b):
        """Different payloads must serialize differently (no collisions),
        modulo the deliberate tuple/list identification."""
        if canonical_bytes(a) == canonical_bytes(b):
            assert _normalize(a) == _normalize(b)

    @given(st.lists(scalars, max_size=6))
    @settings(max_examples=examples(80), deadline=None)
    def test_tuple_list_identified(self, items):
        assert canonical_bytes(items) == canonical_bytes(tuple(items))


def _normalize(value):
    """Tuple/list identification — the only intended equivalence."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            sorted(
                ((_normalize(k), _normalize(v)) for k, v in value.items()),
                key=repr,
            )
        )
    if isinstance(value, float) and value == int(value):
        return value  # floats stay floats (tagged differently from ints)
    return value


class TestSignatures:
    @given(payloads, st.integers(min_value=0, max_value=7))
    @settings(max_examples=examples(100), deadline=None)
    def test_sign_verify_round_trip(self, payload, pid):
        sig = REGISTRY.signer(pid).sign(payload)
        assert REGISTRY.verify(sig, payload)

    @given(payloads, payloads, st.integers(min_value=0, max_value=7))
    @settings(max_examples=examples(100), deadline=None)
    def test_wrong_payload_fails(self, payload, other, pid):
        if _normalize(payload) == _normalize(other):
            return
        sig = REGISTRY.signer(pid).sign(payload)
        assert not REGISTRY.verify(sig, other)

    @given(
        payloads,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_signer_swap_fails(self, payload, signer, claimed):
        if signer == claimed:
            return
        sig = REGISTRY.signer(signer).sign(payload)
        assert not REGISTRY.verify(
            Signature(signer=claimed, digest=sig.digest), payload
        )


@dataclass(frozen=True)
class Node:
    """A frozen value both walks accept, like the protocol dataclasses."""

    children: tuple

    def signing_fields(self):
        return (self.children,)


# Values as messages embed them: frozen nodes and tuples, and — so that
# admission has something to refuse — lists, at any depth.
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(lambda xs: Node(tuple(xs))),
    ),
    max_leaves=10,
)
#: How one top-level payload wraps pool members: (as a Node?, indices).
shapes = st.lists(
    st.tuples(st.booleans(), st.lists(st.integers(0, 99), max_size=4)),
    min_size=1,
    max_size=8,
)
both_walks = pytest.mark.parametrize(
    "walk", [payload_size, canonical_bytes], ids=["size", "bytes"]
)


def _holds_a_list(value):
    if isinstance(value, Node):
        value = value.children
    if isinstance(value, dict):
        value = tuple(value.values())
    return isinstance(value, list) or (
        isinstance(value, tuple) and any(_holds_a_list(v) for v in value)
    )


def _churn(memo):
    """Push every resident entry out with fresh single-use payloads."""
    for i in range(MEMO_LIMIT):
        memo.get(("filler", i))


class TestIdentityMemo:
    """The memo both walks share must be invisible: whatever is shared,
    evicted or mutated, a memoized walk answers what the pure one does."""

    @both_walks
    @given(
        pool=st.lists(values, min_size=1, max_size=5),
        shapes=shapes,
        lookups=st.lists(st.integers(-1, 99), max_size=30),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_equals_the_pure_walk_under_sharing_and_churn(
        self, walk, pool, shapes, lookups
    ):
        # The *same* pool objects sit inside many top-level payloads.
        payloads = []
        for as_node, indices in shapes:
            members = tuple(pool[i % len(pool)] for i in indices)
            payloads.append(Node(members) if as_node else ("msg",) + members)
        memo = IdentityMemo(walk)
        for lookup in lookups:
            if lookup < 0:
                _churn(memo)
                continue
            payload = payloads[lookup % len(payloads)]
            assert memo.get(payload) == walk(payload)
            assert len(memo) <= MEMO_LIMIT
        # What stayed resident is right, and provably could not change.
        for obj, result in memo.entries.values():
            assert walk(obj) == result
            assert not _holds_a_list(obj)

    @both_walks
    @given(
        items=st.lists(scalars, max_size=3),
        extra=st.integers(),  # any element changes bytes; not every one changes size
        wraps=st.lists(st.booleans(), min_size=1, max_size=4),
        shared=values,
        churn_between=st.booleans(),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_mutating_a_list_below_a_seen_node_changes_the_result(
        self, walk, items, extra, wraps, shared, churn_between
    ):
        target = list(items)
        holder = target
        for as_node in wraps:  # bury the list under frozen wrappers
            holder = Node((shared, holder)) if as_node else (shared, holder)
        payloads = [("ack", holder, view) for view in range(3)]
        payloads.append(Node((holder, shared)))
        memo = IdentityMemo(walk)
        before = [memo.get(payload) for payload in payloads]
        assert before == [walk(payload) for payload in payloads]
        # Nothing above the list was admitted, however frozen it looks.
        assert not any(_holds_a_list(obj) for obj, _ in memo.entries.values())
        if churn_between:
            _churn(memo)
        target.append(extra)
        after = [memo.get(payload) for payload in payloads]
        assert after == [walk(payload) for payload in payloads]
        assert all(new != old for new, old in zip(after, before))


def _first_list(value):
    if isinstance(value, list):
        return value
    if isinstance(value, Node):
        value = value.children
    if isinstance(value, tuple):
        for item in value:
            found = _first_list(item)
            if found is not None:
                return found
    return None


def _lookalike(payload):
    """An equal payload that serializes differently where it can: every
    top-level ``bool`` becomes the ``int`` it equals, every ``int`` the
    ``float`` (or ``bool``) it equals."""
    if type(payload) is not tuple:
        return payload

    def twin(x):
        if type(x) is bool:
            return int(x)
        if type(x) is int and x in (0, 1):
            return bool(x)
        if type(x) is int and float(x) == x:
            return float(x)
        return x

    return tuple(twin(x) for x in payload)


class TestVerdictMemo:
    """The verdict memo must be invisible too: a registry that has seen
    the same signature and payload objects any number of times answers
    exactly what a registry seeing them for the first time answers —
    shared, rebuilt, cloned, look-alike or mutated in between."""

    @given(
        pool=st.lists(values, min_size=1, max_size=4),
        shapes=shapes,
        ops=st.lists(
            st.tuples(
                # Few payloads and signers, so the same objects meet again.
                st.integers(0, 2),  # the payload that gets signed
                # ... and the one it is checked against (mostly itself)
                st.one_of(st.none(), st.none(), st.integers(0, 2)),
                st.integers(0, 1),  # by whom
                st.sampled_from([
                    "same", "same", "rebuilt", "rebuilt", "lookalike",
                    "cloned-signature", "batch", "batch", "cloned-batch",
                    "mutate",
                ]),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_equals_a_fresh_registry(self, pool, shapes, ops):
        payloads = []
        for as_node, indices in shapes:
            members = tuple(pool[i % len(pool)] for i in indices)
            # The tuples carry a view number, like the protocol's payloads
            # (and so that each has an equal-but-different twin).
            view = len(payloads) % 3
            payloads.append(Node(members) if as_node else ("msg", view) + members)
        seasoned = KeyRegistry.for_processes(range(4))
        signatures = {}  # one Signature object per (payload, signer)
        certificates = {}  # one signatures tuple per payload
        for signed_at, checked_at, pid, how in ops:
            signed_at %= len(payloads)
            signed = payloads[signed_at]
            checked = (
                signed if checked_at is None
                else payloads[checked_at % len(payloads)]
            )
            if how == "mutate":
                target = _first_list(signed)
                if target is not None:
                    target.append(pid)
                continue
            fresh = KeyRegistry.for_processes(range(4))
            if how == "rebuilt" and type(checked) is tuple:
                checked = tuple(list(checked))  # new tuple, same elements
            elif how == "lookalike":
                checked = _lookalike(checked)
            if "batch" in how:
                cert = certificates.get(signed_at)
                if cert is None:
                    cert = certificates[signed_at] = tuple(
                        seasoned.signer(p).sign(signed) for p in range(pid + 1)
                    )
                if how == "cloned-batch":
                    cert = tuple(Signature(s.signer, s.digest) for s in cert)
                assert seasoned.verify_all(cert, checked) == fresh.verify_all(
                    cert, checked
                )
                continue
            sig = signatures.get((signed_at, pid))
            if sig is None:
                sig = signatures[signed_at, pid] = seasoned.signer(pid).sign(signed)
            if how == "cloned-signature":
                sig = Signature(sig.signer, sig.digest)
            assert seasoned.verify(sig, checked) == fresh.verify(sig, checked)
        # Whatever stayed memoized is true and provably could not change.
        for signed, payload in seasoned._verdicts.values():
            assert not _holds_a_list(payload)
            fresh = KeyRegistry.for_processes(range(4))
            if type(signed) is tuple:
                assert fresh.verify_all(signed, payload)
            else:
                assert fresh.verify(signed, payload)
