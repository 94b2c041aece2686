"""What an SMR command costs in messages, predicted in closed form.

A no-fault, closed-loop SMR run sends exactly what the protocols say,
so its per-type message counts are a formula in ``n``, the commands
``C`` and the decided slots ``S``, and any message the formula does not
predict fails the test.  Replica broadcasts go to the replica group
only: the one message a client is ever sent is a :class:`Reply`.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.scenarios import runner
from repro.scenarios.library import SCENARIOS
from repro.scenarios.spec import DelaySpec, ScenarioSpec, WorkloadSpec
from repro.smr.replica import SlotMessage

SMR_SCENARIOS = sorted(
    name for name, spec in SCENARIOS.items() if spec.protocol.endswith("-smr")
)


@pytest.fixture
def run_hooked(monkeypatch):
    """``run_scenario`` with ``hook`` added to the run's network first;
    returns the result and the cluster."""
    clusters = []

    def run(spec, hook):
        def capture(*args, **kwargs):
            cluster = real(*args, **kwargs)
            cluster.network.add_send_hook(hook)
            clusters.append(cluster)
            return cluster

        real = runner.Cluster
        monkeypatch.setattr(runner, "Cluster", capture)
        result = runner.run_scenario(spec)
        return result, clusters.pop()

    return run


def _closed_loop(protocol, n, f, t=None):
    return ScenarioSpec(
        name=f"counts-{protocol}-{n}",
        protocol=protocol,
        n=n,
        f=f,
        t=t,
        delay=DelaySpec(kind="synchronous"),
        workload=WorkloadSpec(
            clients=3, requests_per_client=10, window=4, key_space=8, seed=1
        ),
        protocol_options={"batch_size": 4, "pipeline_depth": 2},
    )


def _slots(cluster, n):
    """``S``: the slots every replica decided (all agree on how many)."""
    (slots,) = {len(cluster.processes[pid].log) for pid in range(n)}
    return slots


def _tally(counts):
    """A send hook counting messages by type, a ``SlotMessage`` by the
    consensus message it carries."""

    def hook(record):
        payload = record.payload
        if isinstance(payload, SlotMessage):
            payload = payload.inner
        counts[type(payload).__name__] += len(record.dsts)

    return hook


class TestClosedForm:
    def test_vanilla_fbft_at_t_equal_f(self, run_hooked):
        """fbft-smr at n = 4, f = t = 1 runs the Section 3 protocol.

        Per command: n ``Request`` (the client to each replica) and n
        ``Reply``.  Per slot: n ``Propose`` (the leader's broadcast,
        itself included), n² ``Ack`` (every replica to every replica)
        and n(n − 1) ``SlotDecided`` (every replica to its peers).  No
        ``AckSig`` or ``Commit``: the vanilla protocol has no slow path.
        So ``messages_by_type`` is ``Request = Reply = nC``,
        ``SlotMessage = S(n + n²)`` and ``SlotDecided = S·n(n − 1)``.
        """
        n, counts = 4, Counter()
        result, cluster = run_hooked(_closed_loop("fbft-smr", n, 1), _tally(counts))
        assert result.ok
        commands, slots = result.total_requests, _slots(cluster, n)
        assert result.completed_requests == commands == 30
        assert result.messages_by_type == {
            "Request": n * commands,
            "SlotMessage": slots * (n + n * n),
            "SlotDecided": slots * n * (n - 1),
            "Reply": n * commands,
        }
        assert counts == {
            "Request": n * commands,
            "Propose": slots * n,
            "Ack": slots * n * n,
            "SlotDecided": slots * n * (n - 1),
            "Reply": n * commands,
        }

    def test_generalized_fbft_at_t_below_f(self, run_hooked):
        """fbft-smr at n = 7, f = 2, t = 1 runs the generalized protocol
        of Appendix A, whose signed slow path runs beside the fast one.

        Per command: n ``Request`` and n ``Reply``.  Per slot: n
        ``Propose``, n² ``Ack``, n² ``AckSig``, n² ``Commit`` and
        n(n − 1) ``SlotDecided``.  So ``SlotMessage = S(n + 3n²)``.
        """
        n, counts = 7, Counter()
        result, cluster = run_hooked(
            _closed_loop("fbft-smr", n, 2, t=1), _tally(counts)
        )
        assert result.ok
        commands, slots = result.total_requests, _slots(cluster, n)
        assert result.completed_requests == commands == 30
        assert result.messages_by_type == {
            "Request": n * commands,
            "SlotMessage": slots * (n + 3 * n * n),
            "SlotDecided": slots * n * (n - 1),
            "Reply": n * commands,
        }
        assert counts == {
            "Request": n * commands,
            "Propose": slots * n,
            "Ack": slots * n * n,
            "AckSig": slots * n * n,
            "Commit": slots * n * n,
            "SlotDecided": slots * n * (n - 1),
            "Reply": n * commands,
        }

    def test_pbft(self, run_hooked):
        """pbft-smr at n = 4, f = 1.

        Per command: n ``Request`` and n ``Reply``.  Per slot: n
        ``PrePrepare``, n² ``Prepare``, n² ``PBFTCommit`` and n(n − 1)
        ``SlotDecided``.  So ``SlotMessage = S(n + 2n²)``.
        """
        n, counts = 4, Counter()
        result, cluster = run_hooked(_closed_loop("pbft-smr", n, 1), _tally(counts))
        assert result.ok
        commands, slots = result.total_requests, _slots(cluster, n)
        assert result.completed_requests == commands == 30
        assert result.messages_by_type == {
            "Request": n * commands,
            "SlotMessage": slots * (n + 2 * n * n),
            "SlotDecided": slots * n * (n - 1),
            "Reply": n * commands,
        }
        assert counts == {
            "Request": n * commands,
            "PrePrepare": slots * n,
            "Prepare": slots * n * n,
            "PBFTCommit": slots * n * n,
            "SlotDecided": slots * n * (n - 1),
            "Reply": n * commands,
        }


@pytest.mark.parametrize("name", SMR_SCENARIOS)
def test_a_client_is_sent_nothing_but_replies(run_hooked, name):
    spec = SCENARIOS[name]
    sent = Counter()

    def hook(record):
        to_clients = sum(1 for dst in record.dsts if dst >= spec.n)
        if to_clients:
            sent[type(record.payload).__name__] += to_clients

    result, _ = run_hooked(spec, hook)
    assert result.ok
    assert set(sent) == {"Reply"}
