"""The canonical E1–E21 registry entries.

Every experiment from EXPERIMENTS.md is one :class:`ExperimentSpec`: a
parameter grid, a driver that evaluates a *single* grid point, and the
claims the rows must bear out — the paper's (4 processes at f = t = 1,
two fewer than FaB, two message delays on the fast path, …) and the
reproduction's own.  The drivers are pure functions of ``(params,
seed)``, independent of task order, so every run of a grid reproduces
its rows byte-for-byte; ``python -m repro.experiments run`` checks every
claim of every grid it runs.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from ..analysis import (
    MIN_GUIDED_BUDGET,
    PROTOCOLS,
    Stats,
    build_protocol,
    compare_campaigns,
    repeat_latency,
    run_catchup,
    run_common_case,
    run_monitor_tail,
    run_smr_throughput,
)
from ..baselines.fab import FaBConfig, FaBProcess
from ..baselines.optimistic import OptimisticConfig, OptimisticProcess
from ..baselines.pbft import PBFTConfig, PBFTProcess
from ..byzantine.behaviors import SilentProcess
from ..core.config import ProtocolConfig
from ..core.fastbft import FastBFTProcess
from ..core.generalized import GeneralizedFBFTProcess
from ..core.messages import Propose
from ..core.naive_certs import (
    certificate_distinct_signatures,
    certificate_signature_count,
)
from ..core.quorums import (
    min_processes_disjoint_roles,
    min_processes_fast_bft,
    quorum_report,
    selection_threshold,
)
from ..crypto.keys import KeyRegistry
from ..lowerbound import (
    check_t_two_step,
    find_influential_process,
    run_splice_attack,
)
from ..fuzz import run_blind
from ..scenarios import SCENARIOS
from ..scenarios.runner import run_scenarios
from ..sim.events import Simulator
from ..sim.network import (
    FanOut,
    Network,
    RandomDelay,
    RoundSynchronousDelay,
    SynchronousDelay,
)
from ..sim.runner import Cluster
from ..sim.trace import message_delays
from ..smr import KVStore, SMRClient, SMRReplica, fbft_instance_factory
from .registry import register
from .spec import Claim, ExperimentSpec, TaskResult, grid, jsonify, points

# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def _build_fbft(n: int, f: int, value: str = "value") -> List[Any]:
    config = ProtocolConfig(n=n, f=f)
    registry = KeyRegistry.for_processes(config.process_ids)
    return [
        FastBFTProcess(pid, config, registry, value)
        for pid in config.process_ids
    ]


# ---------------------------------------------------------------------------
# Claim helpers
# ---------------------------------------------------------------------------


def _row(result, section: str, *key: Any) -> List[Any]:
    """The row of ``section`` whose leading cells are ``key``; a missing
    row raises ``KeyError``, which breaks the claim that looked."""
    for row in result.rows(section):
        if tuple(row[: len(key)]) == key:
            return row
    raise KeyError(key)


def _points(result, section: str = "main") -> List[Dict[str, Any]]:
    """The grid points of ``section`` that ``result`` ran, grid order."""
    return [
        params
        for params in result.spec.grid_for(result.quick)
        if params.get("section", "main") == section
    ]


def _one_row_per_point(section: str = "main") -> Claim:
    return Claim(
        "one row per grid point",
        section,
        lambda result: len(result.rows(section)) == len(_points(result, section)),
    )


# ---------------------------------------------------------------------------
# E1 — resilience table + minimum-deployment verification
# ---------------------------------------------------------------------------


def _e1_table_points(max_f: int) -> List[Dict[str, Any]]:
    # Dedup with a seen-set keyed on (f, t): the t axis collapses for
    # small f (t = 1 == f // 2 == f at f = 1) and must not emit twice.
    seen = set()
    pts = []
    for f in range(1, max_f + 1):
        for t in (1, max(1, f // 2), f):
            if t > f or (f, t) in seen:
                continue
            seen.add((f, t))
            pts.append({"section": "table", "f": f, "t": t})
    return pts


def _e1_deploy_points(max_f: int) -> List[Dict[str, Any]]:
    return [
        {"section": "deploy", "f": f, "protocol": key}
        for f in range(1, max_f + 1)
        for key in PROTOCOLS
    ]


def deployment_t(protocol: str, f: int) -> int:
    """The fast-threshold ``t`` a minimum deployment of ``protocol`` is
    exercised at: ``t = f`` for families that parameterize the fast path
    by ``t`` (ours, FaB), ``t = 1`` for those that do not (PBFT, Paxos,
    optimistic) — their deployments have no ``t`` knob and the sweep
    must not pretend they were sized for ``t = f``.
    """
    return f if PROTOCOLS[protocol].parameterized_by_t else 1


#: Names of the families whose fast path is parameterized by ``t``.
_BY_T = frozenset(
    spec.name for spec in PROTOCOLS.values() if spec.parameterized_by_t
)


def e1_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    if params["section"] == "table":
        f, t = params["f"], params["t"]
        row = [f, t] + [
            PROTOCOLS[key].min_n(f, t) for key in ("fbft", "fab", "pbft", "paxos")
        ]
        return TaskResult(rows=[("table", row)])
    key, f = params["protocol"], params["f"]
    spec = PROTOCOLS[key]
    t = deployment_t(key, f)
    result = run_common_case(build_protocol(key, f=f, t=t))
    return TaskResult(
        rows=[
            (
                "deploy",
                [spec.name, f, t, spec.min_n(f, t), result.delays, result.decided],
            )
        ]
    )


register(
    ExperimentSpec(
        id="E1",
        name="resilience",
        title="minimum processes per protocol family, with empirical checks",
        paper_ref="Section 1 / 3.4 (the headline comparison table)",
        driver=e1_driver,
        grid=_e1_table_points(8) + _e1_deploy_points(3),
        quick_grid=_e1_table_points(4) + _e1_deploy_points(2),
        columns={
            "table": ("f", "t", "FBFT (ours)", "FaB", "PBFT", "Paxos(crash)"),
            "deploy": ("protocol", "f", "t", "n", "delays", "decided"),
        },
        claims=(
            Claim("one row per (f, t)", "table", lambda r: len(r.rows("table"))
                  == len({(row[0], row[1]) for row in r.rows("table")})),
            Claim("f = t = 1: 4 processes (ours) against FaB's 6", "table",
                  lambda r: _row(r, "table", 1, 1)[2:4] == [4, 6]),
            Claim("always two processes fewer than FaB", "table",
                  lambda f, t, ours, fab, *_: fab - ours == 2, each=True),
            Claim("every minimum deployment decides", "deploy",
                  lambda *row: row[5], each=True),
            Claim("PBFT decides in 3 message delays, every other family in 2",
                  "deploy", lambda name, f, t, n, delays, decided:
                  delays == (3 if name == "PBFT" else 2), each=True),
            Claim("the deployment sweep reaches f >= 2", "deploy",
                  lambda r: any(row[1] > 1 for row in r.rows("deploy"))),
            Claim("t = f for families with a fast threshold, t = 1 otherwise",
                  "deploy", lambda name, f, t, *_: t == (f if name in _BY_T else 1),
                  each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E2 — fast path (Figure 1a)
# ---------------------------------------------------------------------------


def e2_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    f = params["f"]
    n = min_processes_fast_bft(f, f)
    result = run_common_case(_build_fbft(n, f))
    return TaskResult(
        rows=[
            (
                "main",
                [
                    n,
                    f,
                    result.delays,
                    result.messages,
                    result.messages_by_type.get("Propose", 0),
                    result.messages_by_type.get("Ack", 0),
                ],
            )
        ]
    )


register(
    ExperimentSpec(
        id="E2",
        name="fast-path",
        title="two message delays in the common case, n proposes + n^2 acks",
        paper_ref="Figure 1a",
        driver=e2_driver,
        grid=grid(f=(1, 2, 3, 4)),
        quick_grid=grid(f=(1, 2)),
        columns={"main": ("n", "f", "delays", "msgs", "propose", "ack")},
        claims=(
            _one_row_per_point(),
            Claim("the fast path decides in 2 message delays", "main",
                  lambda n, f, delays, *_: delays == 2, each=True),
            Claim("n proposes and n^2 acks", "main",
                  lambda n, f, delays, msgs, proposes, acks:
                  (proposes, acks) == (n, n * n), each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E3 — view change (Figure 1b)
# ---------------------------------------------------------------------------


def e3_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    n, f, crashes = params["n"], params["f"], params["crashes"]
    config = ProtocolConfig(n=n, f=f)
    registry = KeyRegistry.for_processes(config.process_ids)
    procs = [
        FastBFTProcess(pid, config, registry, f"v{pid}")
        for pid in config.process_ids
    ]
    cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
    records: List[FanOut] = []
    cluster.network.add_send_hook(records.append)
    for pid in range(crashes):
        procs[pid].crash()
    correct = list(range(crashes, n))
    result = cluster.run_until_decided(correct_pids=correct, timeout=2000)
    cert_sizes = [
        len(record.payload.cert.signatures)
        for record in records
        if isinstance(record.payload, Propose)
        and record.payload.view > 1
        and record.payload.cert is not None
    ]
    kinds = cluster.trace.messages_by_type()
    return TaskResult(
        rows=[
            (
                "main",
                [
                    n,
                    f,
                    crashes,
                    result.decided,
                    result.decision_time,
                    kinds.get("Vote", 0),
                    kinds.get("CertAck", 0),
                    max(cert_sizes) if cert_sizes else 0,
                    config.cert_quorum,
                ],
            )
        ]
    )


register(
    ExperimentSpec(
        id="E3",
        name="view-change",
        title="crash recovery with bounded (f+1) progress certificates",
        paper_ref="Figure 1b / Section 3.2",
        driver=e3_driver,
        grid=points(
            {"n": 4, "f": 1, "crashes": 1},
            {"n": 9, "f": 2, "crashes": 1},
            {"n": 9, "f": 2, "crashes": 2},
            {"n": 14, "f": 3, "crashes": 3},
        ),
        quick_grid=points(
            {"n": 4, "f": 1, "crashes": 1},
            {"n": 9, "f": 2, "crashes": 2},
        ),
        columns={
            "main": (
                "n", "f", "leader crashes", "decided", "time",
                "votes", "certacks", "cert size", "f+1",
            )
        },
        claims=(
            _one_row_per_point(),
            Claim("every run decides", "main", lambda *row: row[3], each=True),
            Claim("the progress certificate has f + 1 signatures in every view",
                  "main", lambda *row: row[7] == row[8], each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E4 — the lower bound: quorum sweep + splice attack
# ---------------------------------------------------------------------------


def e4_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    f, t = params["f"], params["t"]
    if params["section"] == "quorums":
        n = params["n"]
        report = quorum_report(n, f, t)
        return TaskResult(
            rows=[
                (
                    "quorums",
                    [
                        f, t, n,
                        "yes" if report.meets_bound else "NO",
                        report.qi1, report.qi2, report.qi3,
                        report.fast_vote_overlap, selection_threshold(f, t),
                    ],
                )
            ]
        )
    bound = min_processes_fast_bft(f, t)
    below = run_splice_attack(f=f, t=t, n=bound - 1)
    at = run_splice_attack(f=f, t=t, n=bound)
    return TaskResult(
        rows=[
            (
                "splice",
                [
                    f, t, bound - 1,
                    "DISAGREEMENT" if below.violated else "safe",
                    bound,
                    "DISAGREEMENT" if at.violated else "safe",
                ],
            )
        ]
    )


def _e4_quorum_points(pairs) -> List[Dict[str, Any]]:
    pts = []
    for f, t in pairs:
        bound = min_processes_fast_bft(f, t)
        for n in (bound - 1, bound, bound + 1):
            pts.append({"section": "quorums", "f": f, "t": t, "n": n})
    return pts


register(
    ExperimentSpec(
        id="E4",
        name="lower-bound",
        title="quorum properties flip at n = 3f + 2t - 1; splice attack below it",
        paper_ref="Figures 2-4, Theorem 4.5",
        driver=e4_driver,
        grid=_e4_quorum_points([(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4)])
        + [
            {"section": "splice", "f": f, "t": t}
            for f, t in [(2, 2), (3, 3), (3, 2), (2, 1)]
        ],
        quick_grid=_e4_quorum_points([(1, 1), (2, 2)])
        + [
            {"section": "splice", "f": f, "t": t}
            for f, t in [(2, 2), (2, 1)]
        ],
        columns={
            "quorums": (
                "f", "t", "n", "meets bound", "QI1", "QI2", "QI3",
                "fast∩votes correct", "need (f+t)",
            ),
            "splice": (
                "f", "t", "n=3f+2t-2", "outcome", "n=3f+2t-1", "outcome",
            ),
        },
        claims=(
            Claim("at the bound the fast quorum meets f + t correct votes; "
                  "below it that or an intersection property fails", "quorums",
                  lambda f, t, n, meets, qi1, qi2, qi3, overlap, need:
                  overlap >= need if meets == "yes"
                  else overlap < need or not (qi1 and qi2 and qi3), each=True),
            _one_row_per_point("splice"),
            Claim("the splice attack is harmless at n = 3f + 2t - 1 and "
                  "forces disagreement one process below", "splice",
                  lambda f, t, n_below, below, n_at, at:
                  (below, at) == ("DISAGREEMENT", "safe"), each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E5 — the slow path (Figure 5)
# ---------------------------------------------------------------------------


def _run_with_silent_faults(n: int, f: int, t: int, faults: int) -> Dict[str, Any]:
    config = ProtocolConfig(n=n, f=f, t=t)
    registry = KeyRegistry.for_processes(config.process_ids)
    procs: List[Any] = []
    for pid in config.process_ids:
        if pid >= n - faults:
            procs.append(SilentProcess(pid))
        else:
            procs.append(GeneralizedFBFTProcess(pid, config, registry, "v"))
    cluster = Cluster(procs, delay_model=RoundSynchronousDelay(1.0))
    correct = list(range(n - faults))
    result = cluster.run_until_decided(correct_pids=correct, timeout=100)
    kinds = cluster.trace.messages_by_type()
    return {
        "delays": message_delays(result.decision_time, 1.0),
        "commits": kinds.get("Commit", 0),
    }


def e5_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    n, f, t, faults = params["n"], params["f"], params["t"], params["faults"]
    r = _run_with_silent_faults(n, f, t, faults)
    path = "fast" if r["delays"] == 2 else "slow"
    return TaskResult(
        rows=[("main", [n, f, t, faults, r["delays"], path, r["commits"]])]
    )


def _figure5(n, f, t, faults, delays, path, commits) -> bool:
    return delays == 3 and commits > 0


def _e5_points(configs) -> List[Dict[str, Any]]:
    return [
        {"n": n, "f": f, "t": t, "faults": faults}
        for n, f, t in configs
        for faults in range(f + 1)
    ]


register(
    ExperimentSpec(
        id="E5",
        name="slow-path",
        title="2 delays with <= t faults, 3 delays between t+1 and f",
        paper_ref="Figure 5, Appendix A",
        driver=e5_driver,
        grid=_e5_points([(7, 2, 1), (12, 3, 2), (4, 1, 1)]),
        quick_grid=_e5_points([(7, 2, 1), (4, 1, 1)]),
        columns={
            "main": ("n", "f", "t", "faults", "delays", "path", "Commit msgs")
        },
        claims=(
            Claim("2 message delays with at most t faults, 3 with more", "main",
                  lambda n, f, t, faults, delays, *_:
                  delays == (2 if faults <= t else 3), each=True),
            Claim("Figure 5 (n = 7, f = 2, t = 1, 2 faults): 3 delays, "
                  "Commit messages sent", "main",
                  lambda r: _figure5(*_row(r, "main", 7, 2, 1, 2))),
        ),
    )
)


# ---------------------------------------------------------------------------
# E6 — common-case latency comparison
# ---------------------------------------------------------------------------


_OURS = PROTOCOLS["fbft"].name


def e6_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    runs = params["runs"]
    if params["section"] == "latency":
        key = params["protocol"]
        spec = PROTOCOLS[key]
        stats = repeat_latency(
            lambda: build_protocol(key, f=1),
            runs=runs,
            delay_model_factory=lambda run: RandomDelay(0.5, 1.5, seed=run),
        )
        delays = run_common_case(build_protocol(key, f=1)).delays
        return TaskResult(
            rows=[
                (
                    "latency",
                    [
                        spec.name, spec.min_n(1, 1), delays,
                        round(stats.mean, 3), round(stats.p50, 3),
                        round(stats.p95, 3),
                    ],
                )
            ]
        )
    f = params["f"]
    row = [f]
    for key in ("fbft", "pbft"):
        stats = repeat_latency(
            lambda key=key: build_protocol(key, f=f),
            runs=runs,
            delay_model_factory=lambda run: RandomDelay(0.5, 1.5, seed=run),
        )
        row.append(round(stats.mean, 3))
    return TaskResult(rows=[("scaling", row)])


def _e6_points(latency_runs: int, scaling_runs: int, scaling_fs) -> List[Dict[str, Any]]:
    pts = [
        {"section": "latency", "protocol": key, "runs": latency_runs}
        for key in ("fbft", "fab", "pbft", "paxos", "optimistic")
    ]
    pts += [
        {"section": "scaling", "f": f, "runs": scaling_runs} for f in scaling_fs
    ]
    return pts


register(
    ExperimentSpec(
        id="E6",
        name="latency",
        title="2-vs-3 hop latency gap under seeded random delays",
        paper_ref="Section 1 (the motivating comparison)",
        driver=e6_driver,
        grid=_e6_points(25, 10, (1, 2, 3)),
        quick_grid=_e6_points(8, 5, (1, 2)),
        columns={
            "latency": ("protocol", "n", "delays", "mean", "p50", "p95"),
            "scaling": ("f", "FBFT mean", "PBFT mean"),
        },
        claims=(
            Claim("ours, Paxos and FaB decide in 2 message delays, PBFT in 3",
                  "latency", lambda r: [_row(r, "latency", name)[2] for name in
                  (_OURS, "Paxos (crash)", "FaB Paxos", "PBFT")] == [2, 2, 2, 3]),
            Claim("ours has a lower mean latency than PBFT", "latency",
                  lambda r: _row(r, "latency", _OURS)[3]
                  < _row(r, "latency", "PBFT")[3]),
            Claim("ours is within 0.5 of FaB's mean latency, on two fewer "
                  "processes", "latency",
                  lambda r: abs(_row(r, "latency", _OURS)[3]
                                - _row(r, "latency", "FaB Paxos")[3]) < 0.5),
            Claim("ours has a lower mean latency than PBFT at every f",
                  "scaling", lambda f, ours, pbft: ours < pbft, each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E7 — progress-certificate size across view changes
# ---------------------------------------------------------------------------


def e7_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    scheme, views = params["scheme"], params["views"]
    n, f = 4, 1
    config = ProtocolConfig(n=n, f=f)
    registry = KeyRegistry.for_processes(config.process_ids)
    procs = [
        FastBFTProcess(
            pid, config, registry, f"v{pid}",
            cert_scheme=scheme, pacemaker_enabled=False,
        )
        for pid in config.process_ids
    ]
    cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
    records: List[FanOut] = []
    cluster.network.add_send_hook(records.append)
    cluster.start()
    cluster.sim.run(until=3.0)
    for view in range(2, views + 2):
        for proc in procs:
            proc.enter_view(view)
        cluster.sim.run(until=cluster.sim.now + 8.0)
    sizes: Dict[int, Tuple[int, int]] = {}
    for record in records:
        payload = record.payload
        if isinstance(payload, Propose) and payload.cert is not None:
            sizes[payload.view] = (
                certificate_signature_count(payload.cert),
                certificate_distinct_signatures(payload.cert),
            )
    return TaskResult(
        rows=[
            ("certs", [scheme, view, total, distinct])
            for view, (total, distinct) in sorted(sizes.items())
        ]
    )


def _e7_column(result, scheme: str, column: int) -> Dict[int, Any]:
    """``{view: cell}`` of one certificate scheme's rows."""
    return {
        row[1]: row[column] for row in result.rows("certs") if row[0] == scheme
    }


def _e7_bounded_stays_at_f_plus_1(result) -> bool:
    bounded = _e7_column(result, "bounded", 2)
    return all(bounded.get(view) == 2 for view in _e7_column(result, "naive", 2))


def _e7_naive_grows(result) -> bool:
    totals = [total for _, total in sorted(_e7_column(result, "naive", 2).items())]
    return (
        all(b > a for a, b in zip(totals, totals[1:]))
        and totals[-1] > totals[0] * len(totals)
    )


def _e7_distinct_grows(result) -> bool:
    distinct = [d for _, d in sorted(_e7_column(result, "naive", 3).items())]
    growth = [b - a for a, b in zip(distinct, distinct[1:])]
    return min(growth) > 0 and max(growth) <= 3 * min(growth) + 3


register(
    ExperimentSpec(
        id="E7",
        name="cert-size",
        title="naive certificates grow across views; bounded stay at f+1",
        paper_ref="Section 3.2",
        driver=e7_driver,
        grid=grid(scheme=("naive", "bounded"), views=(6,)),
        quick_grid=grid(scheme=("naive", "bounded"), views=(4,)),
        columns={"certs": ("scheme", "view", "total sigs", "distinct sigs")},
        claims=(
            Claim("naive certificates over at least 4 views", "certs",
                  lambda r: len(_e7_column(r, "naive", 2)) >= 4),
            Claim("bounded certificates stay at f + 1 = 2 signatures in every "
                  "view", "certs", _e7_bounded_stays_at_f_plus_1),
            Claim("naive certificates grow strictly and super-linearly",
                  "certs", _e7_naive_grows),
            Claim("naive distinct signatures grow strictly, by near-constant "
                  "steps", "certs", _e7_distinct_grows),
        ),
    )
)


# ---------------------------------------------------------------------------
# E8 — state machine replication
# ---------------------------------------------------------------------------


def _pbft_instance_factory(config: PBFTConfig):
    def factory(pid, slot, input_value):
        return PBFTProcess(pid, config, input_value)

    return factory


def e8_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    if params["section"] == "failover":
        n, f = 4, 1
        config = ProtocolConfig(n=n, f=f, t=1)
        registry = KeyRegistry.for_processes(range(n))
        factory = fbft_instance_factory(config, registry)
        replicas = [
            SMRReplica(pid, n, f, KVStore(), factory) for pid in range(n)
        ]
        client = SMRClient(pid=n, replica_pids=range(n), f=f)
        client.load_workload([("set", f"k{i}", i) for i in range(8)])
        cluster = Cluster(replicas + [client], delay_model=SynchronousDelay(1.0))
        cluster.start()
        cluster.sim.schedule(10.0, replicas[0].crash)
        cluster.sim.run_until(lambda: client.all_completed, timeout=10_000)
        surviving_logs = len({r.log for r in replicas[1:]})
        return TaskResult(
            rows=[("failover", [client.completed_count, surviving_logs])]
        )
    protocol, n, f = params["protocol"], params["n"], params["f"]
    commands = params["commands"]
    if protocol == "fbft":
        config = ProtocolConfig(n=n, f=f, t=1)
        registry = KeyRegistry.for_processes(range(n))
        factory = fbft_instance_factory(config, registry)
    else:
        factory = _pbft_instance_factory(PBFTConfig(n=n, f=f))
    replicas = [SMRReplica(pid, n, f, KVStore(), factory) for pid in range(n)]
    client = SMRClient(pid=n, replica_pids=range(n), f=f)
    client.load_workload([("set", f"key{i}", i) for i in range(commands)])
    cluster = Cluster(replicas + [client], delay_model=SynchronousDelay(1.0))
    cluster.start()
    cluster.sim.run_until(lambda: client.all_completed, timeout=10_000)
    stats = Stats.from_values(client.latencies())
    identical_logs = len({r.log for r in replicas}) == 1
    return TaskResult(
        rows=[
            (
                "comparison",
                [
                    protocol, n, f, client.completed_count,
                    round(stats.mean, 2), round(stats.p95, 2),
                    round(client.completed_count / cluster.sim.now, 4),
                    identical_logs,
                ],
            )
        ]
    )


register(
    ExperimentSpec(
        id="E8",
        name="smr",
        title="replicated KV store: 4-delay commands (ours) vs 5 (PBFT)",
        paper_ref="Section 1.1",
        driver=e8_driver,
        grid=points(
            {"section": "comparison", "protocol": "fbft", "n": 4, "f": 1, "commands": 15},
            {"section": "comparison", "protocol": "pbft", "n": 4, "f": 1, "commands": 15},
            {"section": "comparison", "protocol": "fbft", "n": 7, "f": 2, "commands": 15},
            {"section": "failover"},
        ),
        quick_grid=points(
            {"section": "comparison", "protocol": "fbft", "n": 4, "f": 1, "commands": 8},
            {"section": "comparison", "protocol": "pbft", "n": 4, "f": 1, "commands": 8},
            {"section": "failover"},
        ),
        columns={
            "comparison": (
                "backend", "n", "f", "done", "mean lat", "p95 lat",
                "cmds/time", "logs equal",
            ),
            "failover": ("completed", "surviving log values"),
        },
        claims=(
            Claim("fbft and pbft at n = 4 complete every command", "comparison",
                  lambda r: _row(r, "comparison", "fbft", 4)[3]
                  == _row(r, "comparison", "pbft", 4)[3]
                  == _points(r, "comparison")[0]["commands"]),
            Claim("a command takes 4 message delays on ours, 5 on PBFT",
                  "comparison", lambda r: [_row(r, "comparison", backend, 4)[4]
                  for backend in ("fbft", "pbft")] == [4.0, 5.0]),
            Claim("every replica ends with the same log", "comparison",
                  lambda *row: row[7], each=True),
            Claim("after a leader crash all 8 commands complete and the "
                  "survivors agree on one log", "failover",
                  lambda r: r.rows("failover") == [[8, 1]]),
        ),
    )
)


# ---------------------------------------------------------------------------
# E9 — fault matrix
# ---------------------------------------------------------------------------


def _e9_run_cell(f: int, t: int, faults: int, leader_faulty: bool):
    n = min_processes_fast_bft(f, t)
    config = ProtocolConfig(n=n, f=f, t=t)
    registry = KeyRegistry.for_processes(config.process_ids)
    faulty = set()
    if leader_faulty and faults > 0:
        faulty.add(0)
    while len(faulty) < faults:
        faulty.add(n - 1 - len(faulty))
    procs: List[Any] = []
    for pid in config.process_ids:
        if pid in faulty:
            procs.append(SilentProcess(pid))
        else:
            procs.append(GeneralizedFBFTProcess(pid, config, registry, "v"))
    cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
    correct = [pid for pid in config.process_ids if pid not in faulty]
    result = cluster.run_until_decided(correct_pids=correct, timeout=2000)
    return n, result.decided, result.decision_time


def e9_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    f, t = params["f"], params["t"]
    if params["section"] == "crossover":
        boundary = []
        for faults in range(f + 1):
            _, decided, decision_time = _e9_run_cell(f, t, faults, False)
            boundary.append(message_delays(decision_time, 1.0))
        return TaskResult(rows=[("crossover", [f, t, boundary])])
    faults, leader = params["faults"], params["leader"]
    n, decided, decision_time = _e9_run_cell(f, t, faults, leader)
    delays = message_delays(decision_time, 1.0) if decided else None
    if leader:
        path = "view-change"
    else:
        path = "fast" if delays == 2 else "slow" if delays == 3 else "view-change"
    kind = "leader" if leader else "non-leader"
    return TaskResult(rows=[("matrix", [f, t, n, faults, kind, delays, path])])


def _e9_points(pairs) -> List[Dict[str, Any]]:
    pts = []
    for f, t in pairs:
        for faults in range(f + 1):
            pts.append(
                {"section": "matrix", "f": f, "t": t, "faults": faults,
                 "leader": False}
            )
        pts.append(
            {"section": "matrix", "f": f, "t": t, "faults": 1, "leader": True}
        )
    return pts


register(
    ExperimentSpec(
        id="E9",
        name="fault-matrix",
        title="latency vs fault count/kind; fast/slow crossover at exactly t",
        paper_ref="Section 3.4",
        driver=e9_driver,
        grid=_e9_points([(2, 1), (2, 2), (3, 1), (3, 2)])
        + [{"section": "crossover", "f": 3, "t": 2}],
        quick_grid=_e9_points([(2, 1), (2, 2)])
        + [{"section": "crossover", "f": 3, "t": 2}],
        columns={
            "matrix": ("f", "t", "n", "faults", "kind", "delays", "path"),
            "crossover": ("f", "t", "delays by fault count"),
        },
        claims=(
            Claim("every cell decides", "matrix",
                  lambda *row: row[5] is not None, each=True),
            Claim("non-leader faults: 2 message delays up to t, 3 beyond",
                  "matrix", lambda f, t, n, faults, kind, delays, path:
                  kind == "leader" or delays == (2 if faults <= t else 3),
                  each=True),
            Claim("a faulty leader costs the view-change timeout (> 3 delays)",
                  "matrix", lambda f, t, n, faults, kind, delays, path:
                  kind != "leader" or delays > 3, each=True),
            Claim("at f = 3, t = 2 the fast/slow boundary sits exactly at t",
                  "crossover",
                  lambda r: r.rows("crossover") == [[3, 2, [2, 2, 2, 3]]]),
        ),
    )
)


# ---------------------------------------------------------------------------
# E10 — the t-two-step property
# ---------------------------------------------------------------------------


def _fbft_factory(n: int, f: int, t: int):
    config = ProtocolConfig(n=n, f=f, t=t)
    registry = KeyRegistry.for_processes(config.process_ids)
    cls = FastBFTProcess if config.is_vanilla else GeneralizedFBFTProcess
    return lambda pid, value: cls(pid, config, registry, value)


def _pbft_factory(n: int, f: int):
    config = PBFTConfig(n=n, f=f)
    return lambda pid, value: PBFTProcess(pid, config, value)


def e10_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    if params["section"] == "witness":
        witness = find_influential_process(_fbft_factory(4, 1, 1), n=4, t=1)
        return TaskResult(
            rows=[
                (
                    "witness",
                    [
                        witness.pid,
                        sorted(witness.t0_set), repr(witness.value0),
                        sorted(witness.t1_set), repr(witness.value1),
                        witness.check(),
                    ],
                )
            ]
        )
    name, n, f, t = params["name"], params["n"], params["f"], params["t"]
    limit = params["limit"]
    if name == "PBFT":
        factory = _pbft_factory(n, f)
    else:
        factory = _fbft_factory(n, f, t)
    report = check_t_two_step(
        factory, n=n, t=t, protocol_name=name, max_fault_sets=limit
    )
    return TaskResult(
        rows=[
            (
                "two_step",
                [
                    name, n, t, report.executions,
                    report.two_step_executions,
                    "YES" if report.is_t_two_step else "no",
                ],
            )
        ]
    )


_E10_CASES = [
    {"section": "two_step", "name": "FBFT", "n": 4, "f": 1, "t": 1, "limit": None},
    {"section": "two_step", "name": "FBFT", "n": 9, "f": 2, "t": 2, "limit": 20},
    {"section": "two_step", "name": "FBFT gen", "n": 7, "f": 2, "t": 1, "limit": None},
    {"section": "two_step", "name": "FBFT gen", "n": 12, "f": 3, "t": 2, "limit": 20},
    {"section": "two_step", "name": "PBFT", "n": 4, "f": 1, "t": 1, "limit": None},
    {"section": "two_step", "name": "PBFT", "n": 10, "f": 3, "t": 1, "limit": 10},
]

register(
    ExperimentSpec(
        id="E10",
        name="two-step",
        title="ours is t-two-step (PBFT is not); Lemma 4.4 witness search",
        paper_ref="Sections 4.1 / 4.3-4.4",
        driver=e10_driver,
        grid=_E10_CASES + [{"section": "witness"}],
        quick_grid=[_E10_CASES[0], _E10_CASES[4]] + [{"section": "witness"}],
        columns={
            "two_step": (
                "protocol", "n", "t", "executions", "two-step", "t-two-step?"
            ),
            "witness": ("pid", "T0", "value0", "T1", "value1", "valid"),
        },
        claims=(
            _one_row_per_point("two_step"),
            Claim("the FBFT protocols are t-two-step in every execution, PBFT "
                  "in none", "two_step",
                  lambda name, n, t, executions, two_step, verdict:
                  (verdict, two_step) == (("YES", executions)
                  if name.startswith("FBFT") else ("no", 0)), each=True),
            Claim("Lemma 4.4's witness is valid and is the view-1 leader",
                  "witness", lambda r: [(row[0], row[5]) for row in
                  r.rows("witness")] == [(0, True)]),
        ),
    )
)


# ---------------------------------------------------------------------------
# E11 — the equivocator-exclusion ablation
# ---------------------------------------------------------------------------


def e11_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    f, t = params["f"], params["t"]
    bound = min_processes_fast_bft(f, t)
    with_trick = run_splice_attack(f=f, t=t, n=bound, exclude_equivocator=True)
    without_trick = run_splice_attack(f=f, t=t, n=bound, exclude_equivocator=False)
    return TaskResult(
        rows=[
            (
                "main",
                [
                    f, t, bound,
                    "safe" if with_trick.safe else "DISAGREEMENT",
                    "safe" if without_trick.safe else "DISAGREEMENT",
                    min_processes_disjoint_roles(f, t),
                ],
            )
        ]
    )


register(
    ExperimentSpec(
        id="E11",
        name="ablation",
        title="the exclusion trick is load-bearing at n = 3f + 2t - 1",
        paper_ref="Sections 3.2 / 4.4",
        driver=e11_driver,
        grid=points({"f": 2, "t": 2}, {"f": 3, "t": 2}, {"f": 2, "t": 1}),
        quick_grid=points({"f": 2, "t": 2}, {"f": 2, "t": 1}),
        columns={
            "main": (
                "f", "t", "n (bound)", "with exclusion", "without exclusion",
                "disjoint-roles bound",
            )
        },
        claims=(
            _one_row_per_point(),
            Claim("the splice attack is harmless with the exclusion trick and "
                  "forces disagreement without it", "main",
                  lambda f, t, n, with_trick, without_trick, disjoint:
                  (with_trick, without_trick) == ("safe", "DISAGREEMENT"),
                  each=True),
            Claim("disjoint roles need two more processes (Section 4.4)", "main",
                  lambda f, t, n, with_trick, without_trick, disjoint:
                  disjoint == n + 2, each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E12 — fast-path robustness across the design space
# ---------------------------------------------------------------------------

_E12_F, _E12_T = 2, 1


def _e12_build_family(key: str, faults: int):
    if key == "fbft":
        config = ProtocolConfig(n=3 * _E12_F + 2 * _E12_T - 1, f=_E12_F, t=_E12_T)
        registry = KeyRegistry.for_processes(config.process_ids)
        make = lambda pid: GeneralizedFBFTProcess(pid, config, registry, "v")
        n = config.n
    elif key == "fab":
        config = FaBConfig(n=3 * _E12_F + 2 * _E12_T + 1, f=_E12_F, t=_E12_T)
        make = lambda pid: FaBProcess(pid, config, "v")
        n = config.n
    elif key == "pbft":
        config = PBFTConfig(n=3 * _E12_F + 1, f=_E12_F)
        make = lambda pid: PBFTProcess(pid, config, "v")
        n = config.n
    else:
        config = OptimisticConfig(n=3 * _E12_F + 1, f=_E12_F)
        make = lambda pid: OptimisticProcess(pid, config, "v")
        n = config.n
    procs: List[Any] = []
    for pid in range(n):
        if pid >= n - faults:
            procs.append(SilentProcess(pid))
        else:
            procs.append(make(pid))
    return procs, n


_E12_LABELS = {
    "fbft": "FBFT gen (ours)",
    "fab": "FaB Paxos",
    "optimistic": "Kursawe-style",
    "pbft": "PBFT",
}


def e12_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    key, faults = params["family"], params["faults"]
    procs, n = _e12_build_family(key, faults)
    cluster = Cluster(procs, delay_model=RoundSynchronousDelay(1.0))
    correct = range(n - faults)
    result = cluster.run_until_decided(correct_pids=correct, timeout=200)
    delays = (
        message_delays(result.decision_time, 1.0) if result.decided else None
    )
    return TaskResult(rows=[("main", [_E12_LABELS[key], n, faults, delays])])


register(
    ExperimentSpec(
        id="E12",
        name="fast-robustness",
        title="where each protocol family falls off the fast path",
        paper_ref="Section 5 (related-work positioning)",
        driver=e12_driver,
        grid=grid(
            family=("fbft", "fab", "optimistic", "pbft"),
            faults=tuple(range(_E12_F + 1)),
        ),
        quick_grid=grid(family=("fbft", "pbft"), faults=(0, 1, 2)),
        columns={"main": ("protocol", "n", "faults", "delays")},
        claims=(
            Claim("ours is fast through t faults and slow (3 delays) at f",
                  "main", lambda protocol, n, faults, delays:
                  protocol != _E12_LABELS["fbft"]
                  or delays == (2 if faults <= _E12_T else 3), each=True),
            Claim("FaB is fast with t faults, on two more processes", "main",
                  lambda protocol, n, faults, delays:
                  (protocol, faults) != (_E12_LABELS["fab"], _E12_T)
                  or delays == 2, each=True),
            Claim("Kursawe-style falls off the fast path at the first fault",
                  "main", lambda protocol, n, faults, delays:
                  protocol != _E12_LABELS["optimistic"] or faults > 1
                  or (delays == 2 if faults == 0 else delays > 2), each=True),
            Claim("PBFT is never fast (3 delays)", "main",
                  lambda protocol, n, faults, delays:
                  protocol != _E12_LABELS["pbft"] or delays == 3, each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E13 — scalability
# ---------------------------------------------------------------------------


def e13_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    if params["section"] == "events":
        n, f = params["n"], params["f"]
        cluster = Cluster(
            _build_fbft(n, f), delay_model=RoundSynchronousDelay(1.0)
        )
        cluster.run_until_decided()
        return TaskResult(rows=[("events", [n, f, cluster.sim.events_processed])])
    f = params["f"]
    n = min_processes_fast_bft(f, f)
    result = run_common_case(_build_fbft(n, f))
    # Wall clock stays out of the rows: every cell here is simulated and
    # exact, so every run gives the same rows.
    row = [
        n, f, result.delays, result.messages,
        round(result.messages / (n * n), 2),
    ]
    return TaskResult(rows=[("scale", row)])


def _stable_digest(payload: Any) -> str:
    import hashlib
    import json

    return hashlib.sha256(
        json.dumps(jsonify(payload), sort_keys=True).encode()
    ).hexdigest()


register(
    ExperimentSpec(
        id="E13",
        name="scalability",
        title="delays stay at 2 as n grows; messages grow ~n^2",
        paper_ref="reproduction due diligence (not a paper figure)",
        driver=e13_driver,
        grid=[
            {"section": "scale", "f": f} for f in (1, 2, 4, 6, 8, 10, 12)
        ]
        + [{"section": "events", "n": 19, "f": 4}],
        quick_grid=[{"section": "scale", "f": f} for f in (1, 2, 4)]
        + [{"section": "events", "n": 19, "f": 4}],
        columns={
            "scale": ("n", "f", "delays", "msgs", "msgs/n^2"),
            "events": ("n", "f", "events"),
        },
        claims=(
            _one_row_per_point("scale"),
            Claim("2 message delays at every n", "scale",
                  lambda n, f, delays, msgs, ratio: delays == 2, each=True),
            Claim("messages grow as n proposes + n^2 acks "
                  "(1.0 <= msgs/n^2 <= 1.3)", "scale",
                  lambda n, f, delays, msgs, ratio: 1.0 <= ratio <= 1.3,
                  each=True),
            Claim("over 300 simulated events at n = 19", "events",
                  lambda r: [row[2] > 300 for row in r.rows("events")] == [True]),
        ),
    )
)


# ---------------------------------------------------------------------------
# E14 — the scenario engine
# ---------------------------------------------------------------------------


def e14_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    if params["section"] == "library":
        (result,) = run_scenarios([params["scenario"]])
        return TaskResult(
            rows=[
                (
                    "library",
                    [
                        result.spec.name,
                        result.spec.protocol,
                        result.ok,
                        result.steps,
                        result.messages_sent,
                        result.bytes_sent,
                        result.trace_digest,
                    ],
                )
            ]
        )
    start, seeds = params["start"], params["seeds"]
    report = run_blind(seeds, start_seed=start)
    return TaskResult(
        rows=[
            (
                "fuzz",
                [start, seeds, report.ok, len(report.failures)],
            )
        ]
    )


def _e14_points(scenarios, fuzz_chunks) -> List[Dict[str, Any]]:
    pts = [{"section": "library", "scenario": name} for name in scenarios]
    pts += [
        {"section": "fuzz", "start": start, "seeds": seeds}
        for start, seeds in fuzz_chunks
    ]
    return pts


_E14_QUICK_SCENARIOS = (
    "fast-path-clean", "crash-quorum-edge", "pbft-clean", "fab-fast-path",
    "slow-path-commit", "equivocating-leader", "smr-crash-recovery",
)

register(
    ExperimentSpec(
        id="E14",
        name="scenarios",
        title="the canonical scenario library + fuzz campaign, all oracles green",
        paper_ref="every claim, as declarative fault scenarios",
        driver=e14_driver,
        grid=_e14_points(
            tuple(SCENARIOS), [(0, 5), (5, 5), (10, 5), (15, 5)]
        ),
        quick_grid=_e14_points(_E14_QUICK_SCENARIOS, [(0, 5)]),
        columns={
            "library": (
                "scenario", "protocol", "ok", "steps", "msgs", "bytes",
                "trace digest",
            ),
            "fuzz": ("start", "seeds", "ok", "failures"),
        },
        claims=(
            Claim("every canonical scenario passes its oracles", "library",
                  lambda *row: row[2], each=True),
            Claim("the library pins the headline latencies (steps)", "library",
                  lambda r: [_row(r, "library", name)[3] for name in (
                      "fast-path-clean", "crash-quorum-edge", "pbft-clean",
                      "fab-fast-path", "slow-path-commit",
                  )] == [2, 2, 3, 2, 3]),
            Claim("the fuzz chunks run every seed of the grid", "fuzz",
                  lambda r: sum(row[1] for row in r.rows("fuzz"))
                  == sum(params["seeds"] for params in _points(r, "fuzz"))),
            Claim("every fuzz chunk passes with no failures", "fuzz",
                  lambda start, seeds, ok, failures: ok and failures == 0,
                  each=True),
        ),
    )
)


# ---------------------------------------------------------------------------
# E15 — batched, pipelined SMR throughput
# ---------------------------------------------------------------------------


def e15_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    result = run_smr_throughput(
        backend=params["backend"],
        clients=params["clients"],
        requests_per_client=params["requests"],
        window=params["window"],
        batch_size=params["batch"],
        pipeline_depth=params["depth"],
    )
    if params.get("section") == "load":
        return TaskResult(
            rows=[
                (
                    "load",
                    [
                        params["backend"], params["batch"], params["depth"],
                        params["clients"], result.completed,
                        result.slots_used, round(result.ops_per_sec, 3),
                        round(result.latency.p95, 1),
                    ],
                )
            ]
        )
    return TaskResult(rows=[("main", result.row() + [round(result.duration, 1)])])


def _e15_beats(fbft: List[Any], pbft: List[Any]) -> bool:
    return fbft[5] > pbft[5] and fbft[6] < pbft[6]


def _e15_batched_log(backend, batch, depth, done, slots, rate, p50, p95, _) -> bool:
    return 4 * slots <= done and p95 <= 2 * p50


def _e15_load(result, batch: int = 8) -> List[float]:
    """The ``load`` section's ops/t at one batch size, by client count."""
    return [row[6] for row in result.rows("load") if row[1] == batch]


#: (backend, batch_size, pipeline_depth); first row = seed configuration.
E15_GRID = [
    ("fbft", 1, 1),
    ("fbft", 8, 1),
    ("fbft", 1, 4),
    ("fbft", 8, 4),
    ("pbft", 1, 1),
    ("pbft", 8, 4),
]


def _e15_points(clients: int, requests: int, window: int) -> List[Dict[str, Any]]:
    return [
        {
            "section": "main",
            "backend": backend, "batch": batch, "depth": depth,
            "clients": clients, "requests": requests, "window": window,
        }
        for backend, batch, depth in E15_GRID
    ]


def _e15_load_points() -> List[Dict[str, Any]]:
    """Throughput vs offered load: the engine must scale with clients."""
    pts = []
    for clients in (6, 8, 10):
        for batch, depth in ((1, 1), (8, 4)):
            pts.append(
                {
                    "section": "load", "backend": "fbft", "batch": batch,
                    "depth": depth, "clients": clients, "requests": 16,
                    "window": 8,
                }
            )
    return pts


register(
    ExperimentSpec(
        id="E15",
        name="throughput",
        title="batched+pipelined SMR sustains >= 5x the seed config ops/sec",
        paper_ref="the replication engine (Section 1.1 scaled up)",
        driver=e15_driver,
        grid=_e15_points(clients=4, requests=16, window=8) + _e15_load_points(),
        quick_grid=_e15_points(clients=2, requests=8, window=8),
        columns={
            "main": (
                "backend", "batch", "depth", "done", "slots", "ops/t",
                "p50", "p95", "duration",
            ),
            "load": (
                "backend", "batch", "depth", "clients", "done", "slots",
                "ops/t", "p95",
            ),
        },
        claims=(
            Claim("every configuration completes the offered load", "main",
                  lambda r: [row[3] for row in r.rows("main")]
                  == [p["clients"] * p["requests"] for p in _points(r)]),
            Claim("batch 8 / depth 4 sustains >= 5x the seed config's ops/t",
                  "main", lambda r: _row(r, "main", "fbft", 8, 4)[5]
                  >= 5.0 * _row(r, "main", "fbft", 1, 1)[5]),
            Claim("at batch 8 / depth 4 fbft beats pbft in ops/t and p50",
                  "main", lambda r: _e15_beats(_row(r, "main", "fbft", 8, 4),
                                               _row(r, "main", "pbft", 8, 4))),
            Claim("at batch 8 / depth 4 the log has at most one slot per 4 "
                  "commands, and p95 <= 2 x p50", "main",
                  lambda r: _e15_batched_log(*_row(r, "main", "fbft", 8, 4))),
            Claim("batched ops/t grows with the offered load", "load",
                  lambda r: _e15_load(r) == sorted(_e15_load(r))),
            Claim("batched ops/t beats 5x the seed config's at every load",
                  "load", lambda r: all(batched > 5 * seed for batched, seed in
                                        zip(_e15_load(r), _e15_load(r, 1)))),
        ),
    )
)


# ---------------------------------------------------------------------------
# E17 — durability: catchup latency and bytes vs lag depth and interval
# ---------------------------------------------------------------------------


def e17_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    result = run_catchup(
        checkpoint_interval=params["interval"],
        lag_requests=params["lag"],
        disk=params["disk"],
    )
    return TaskResult(
        rows=[
            (
                "main",
                [
                    params["interval"],
                    params["disk"],
                    # The offered lag (grid param) alongside the measured
                    # one: cross-row assertions pair rows by the former,
                    # which batching changes cannot perturb.
                    params["lag"],
                    result.lag_slots,
                    round(result.catchup_time, 1),
                    result.catchup_messages,
                    result.catchup_bytes,
                    result.stable_slot,
                    result.wal_records,
                    result.digests_equal,
                ],
            )
        ]
    )


def _e17_bytes_grow_with_lag(result) -> bool:
    """Rows pair by the *offered* lag (the grid parameter), so the claim
    holds structurally however batching maps requests to slots; a
    missing partner breaks it."""
    lags = sorted({params["lag"] for params in result.spec.grid_for(result.quick)})
    sent = {(row[0], row[1], row[2]): row[6] for row in result.rows("main")}
    for interval, disk in {(row[0], row[1]) for row in result.rows("main")}:
        sizes = [sent[(interval, disk, lag)] for lag in lags]
        if not all(b > a for a, b in zip(sizes, sizes[1:])):
            return False
    return True


def _e17_retained_at_most_lost(result) -> bool:
    sent = {(row[0], row[1], row[2]): row[6] for row in result.rows("main")}
    return all(
        size <= sent.get((interval, "lost", lag), size)
        for (interval, disk, lag), size in sent.items()
        if disk == "retained"
    )


def _e17_points(intervals, lags, disks) -> List[Dict[str, Any]]:
    return [
        {"interval": interval, "lag": lag, "disk": disk}
        for disk in disks
        for interval in intervals
        for lag in lags
    ]


register(
    ExperimentSpec(
        id="E17",
        name="catchup",
        title="durable recovery: catchup latency/bytes vs lag depth and checkpoint interval",
        paper_ref="the durability subsystem (repro.storage; not a paper figure)",
        driver=e17_driver,
        grid=_e17_points((2, 4, 8), (8, 24), ("lost",))
        + _e17_points((4, 8), (8, 24), ("retained",)),
        quick_grid=_e17_points((4,), (8,), ("lost", "retained")),
        columns={
            "main": (
                "interval", "disk", "lag req", "lag slots", "catchup time",
                "catchup msgs", "catchup bytes", "stable slot",
                "wal records", "digest ok",
            )
        },
        claims=(
            Claim("every recovery rebuilds the reference state digest", "main",
                  lambda *row: row[9], each=True),
            Claim("both disk modes recover", "main",
                  lambda r: {row[1] for row in r.rows("main")}
                  == {"lost", "retained"}),
            Claim("a stable checkpoint bounds the WAL below one interval",
                  "main", lambda interval, *row: row[7] <= max(interval - 1, 0)
                  or row[6] == -1, each=True),
            Claim("catchup bytes grow with the lag at every interval and disk",
                  "main", _e17_bytes_grow_with_lag),
            Claim("a retained disk never transfers more than a lost one",
                  "main", _e17_retained_at_most_lost),
        ),
    )
)


# ---------------------------------------------------------------------------
# E18 — leader-performance monitor: tail latency with vs without
# ---------------------------------------------------------------------------


#: Severities at or below the default demotion threshold (ratio 4 x
#: min-drain 2 = 8): the throttled slot latency stays within tolerance,
#: so the monitor must hold its fire and the arms must tie.
E18_SUB_THRESHOLD = 4.0


def _e18_monitor_cuts_the_tail(result) -> bool:
    p99_off = {
        (row[0], row[1]): row[7] for row in result.rows("main") if row[2] == "off"
    }
    return all(
        row[8] >= 1 and row[7] < p99_off[(row[0], row[1])]
        for row in result.rows("main")
        if row[2] == "on" and row[0] > E18_SUB_THRESHOLD
    )


def e18_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    result = run_monitor_tail(
        severity=params["severity"],
        window=params["window"],
        monitor_on=params["monitor"],
    )
    return TaskResult(
        rows=[
            (
                "main",
                [
                    params["severity"],
                    params["window"],
                    "on" if params["monitor"] else "off",
                    result.completed,
                    round(result.duration, 1),
                    round(result.latency.p50, 1),
                    round(result.latency.p95, 1),
                    round(result.latency.p99, 1),
                    result.demotions,
                    result.view_floor,
                ],
            )
        ]
    )


register(
    ExperimentSpec(
        id="E18",
        name="monitor",
        title="leader-performance monitor cuts p99 under a throttling leader",
        paper_ref="the performance attack liveness proofs ignore (repro.obs; not a paper figure)",
        driver=e18_driver,
        grid=grid(
            severity=(4.0, 8.0, 12.0),
            window=(15.0, 30.0),
            monitor=(True, False),
        ),
        quick_grid=grid(severity=(8.0,), window=(30.0,), monitor=(True, False)),
        columns={
            "main": (
                "severity", "window", "monitor", "done", "duration",
                "p50", "p95", "p99", "demotions", "view floor",
            )
        },
        claims=(
            Claim("both arms run", "main",
                  lambda r: {row[2] for row in r.rows("main")} == {"on", "off"}),
            Claim("the unmonitored arm never rotates", "main",
                  lambda *row: row[2] == "on" or (row[8], row[9]) == (0, 1),
                  each=True),
            Claim("the monitor rotates at most twice (view floor <= 3)", "main",
                  lambda *row: row[2] == "off" or row[9] <= 3, each=True),
            Claim("at or below the threshold severity the monitor never "
                  "demotes", "main", lambda *row: row[2] == "off"
                  or row[0] > E18_SUB_THRESHOLD or row[8] == 0, each=True),
            Claim("above the threshold the monitor demotes and its p99 beats "
                  "the unmonitored arm's", "main", _e18_monitor_cuts_the_tail),
        ),
    )
)


# ---------------------------------------------------------------------------
# E19 — coverage-guided fuzzing: guided vs blind signature discovery
# ---------------------------------------------------------------------------


def _e19_guided_beats_blind(result) -> bool:
    unique = {(row[0], row[1]): row[4] for row in result.rows("compare")}
    return all(
        unique[("guided", budget)] > unique[("blind", budget)]
        for mode, budget in unique
        if budget >= MIN_GUIDED_BUDGET
    )


def _e19_monotone(result) -> bool:
    last: Dict[Tuple[str, int], int] = {}
    for row in result.rows("trajectory"):
        if row[4] < last.get((row[0], row[1]), 0):
            return False
        last[(row[0], row[1])] = row[4]
    return True


def e19_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    """Guided-vs-blind campaign comparison at one budget.

    The seed stream is pinned by ``start``, so rows are deterministic.
    """
    comparison = compare_campaigns(
        budget=params["budget"], start_seed=params["start"]
    )
    rows: List[Tuple[str, List[Any]]] = [
        ("compare", row) for row in comparison.compare_rows()
    ]
    rows.extend(("trajectory", row) for row in comparison.trajectory_rows())
    return TaskResult(rows=rows)


register(
    ExperimentSpec(
        id="E19",
        name="fuzz",
        title="coverage-guided campaigns beat blind fuzzing at equal budget",
        paper_ref="robustness due diligence (repro.fuzz; not a paper figure)",
        driver=e19_driver,
        grid=grid(budget=(256, 384), start=(0,)),
        quick_grid=grid(budget=(256,), start=(0,)),
        columns={
            "compare": (
                "mode", "budget", "start", "executed", "unique sigs",
                "corpus", "features", "failures",
            ),
            "trajectory": (
                "mode", "budget", "round", "executed", "unique sigs",
                "corpus", "mutants",
            ),
        },
        claims=(
            Claim("both arms run", "compare",
                  lambda r: {row[0] for row in r.rows("compare")}
                  == {"guided", "blind"}),
            Claim("both arms execute their full budget with no oracle "
                  "failures", "compare", lambda mode, budget, start, executed,
                  *row: (executed, row[-1]) == (budget, 0), each=True),
            Claim(f"guided finds strictly more unique signatures than blind at "
                  f"every budget >= {MIN_GUIDED_BUDGET}", "compare",
                  _e19_guided_beats_blind),
            Claim("the discovery curves never regress", "trajectory",
                  _e19_monotone),
        ),
    )
)


# ---------------------------------------------------------------------------
# E21 — observability overhead: flight recorder on vs off (wall clock)
# ---------------------------------------------------------------------------

#: The storm's ``(n, rounds)``.  The quick size is also the one whose
#: exact recorder-off/on call counts ``benchmarks/perf_counters.py`` pins.
E21_QUICK_STORM = (12, 200)
E21_FULL_STORM = (16, 600)
#: The claimed floor of recorder-on rate / recorder-off rate on the
#: storm (<= 10% overhead).
E21_STORM_RECORDER_FLOOR = 0.90


def _default_sim_net():
    sim = Simulator()
    return sim, Network(sim, delay_model=SynchronousDelay(1.0))


def recorder_sim_net():
    """A :func:`broadcast_storm` factory with a flight recorder attached
    (the E21 ``recorder`` variant of the network hot path)."""
    from ..obs.recorder import FlightRecorder

    sim = Simulator()
    net = Network(sim, delay_model=SynchronousDelay(1.0))
    net.install_tracer(FlightRecorder())
    return sim, net


def broadcast_storm(
    n: int,
    rounds: int,
    sim_net_factory: Callable[[], Any] = _default_sim_net,
) -> float:
    """n processes broadcast an n-recipient payload every round: the
    network hot path (send → schedule → deliver).  Returns events/sec."""
    sim, net = sim_net_factory()
    remaining = [rounds]

    def handler(src: int, payload: Any) -> None:
        return None

    for pid in range(n):
        net.register(pid, handler)

    def pump() -> None:
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        for src in range(n):
            net.broadcast(src, ("req", src, remaining[0]))
        sim.schedule(1.0, pump)

    sim.schedule(0.0, pump)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    expected = n * n * rounds
    assert sim.events_processed >= expected, "storm did not run fully"
    return sim.events_processed / wall


def e21_driver(params: Dict[str, Any], seed: int) -> TaskResult:
    """One variant of the broadcast storm: bare (``off``) or with a
    :class:`~repro.obs.recorder.FlightRecorder` attached (``recorder``).

    The storm's tuple payloads are ones the recorder does not want, so
    what is timed is the selective tracer's unwanted-payload path: one
    memoized ``wants`` verdict per payload type, then the fast delivery
    post.  The spec claims the on/off ratio; what recording *wanted*
    traffic costs is an exact call count in
    ``tests/golden/e2e_counters.json``, not a rate.
    """
    from .. import _core

    n, rounds = E21_QUICK_STORM if params["quick"] else E21_FULL_STORM
    factory = (
        recorder_sim_net if params["variant"] == "recorder" else _default_sim_net
    )
    # Best of two passes of three storms: the on/off ratio is the
    # claimed number, so per-storm noise must not pass for recorder
    # overhead.
    rate = max(broadcast_storm(n, rounds, factory) for _ in range(2 * 3))
    # Events/sec are hardware-dependent: the digest covers the workload
    # identity only, so ``diff`` of two runs stays meaningful.
    return TaskResult(
        rows=[
            (
                "main",
                [
                    "broadcast_storm", params["variant"], _core.BACKEND,
                    "events/sec", round(rate, 2),
                ],
            )
        ],
        digest=_stable_digest(["E21", "broadcast_storm", params["variant"]]),
    )


register(
    ExperimentSpec(
        id="E21",
        name="obsoverhead",
        title="flight-recorder overhead: recorder-on vs recorder-off storm rates",
        paper_ref="perf due diligence (the network hot path, recorder on vs off)",
        driver=e21_driver,
        grid=grid(variant=("off", "recorder"), quick=(False,)),
        quick_grid=grid(variant=("off", "recorder"), quick=(True,)),
        columns={"main": ("workload", "variant", "backend", "unit", "rate")},
        deterministic=False,
        claims=(
            Claim(f"the broadcast storm sustains >= {E21_STORM_RECORDER_FLOOR}x "
                  f"its recorder-off rate with a recorder attached", "main",
                  lambda r: _row(r, "main", "broadcast_storm", "recorder")[4]
                  >= E21_STORM_RECORDER_FLOOR
                  * _row(r, "main", "broadcast_storm", "off")[4]),
        ),
    )
)
