"""The message tables: every protocol routes through one declaration.

Structural checks over every process class under ``core/``,
``baselines/`` and ``smr/``, the four view policies on one tiny process,
and the stasher payload-type names the fuzzer and the scenario library
keep as strings.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro
from repro.baselines.fab import FaBProcess
from repro.baselines.optimistic import OptimisticProcess
from repro.baselines.paxos import PaxosProcess
from repro.baselines.pbft import PBFTProcess
from repro.core.generalized import GeneralizedFBFTProcess
from repro.fuzz.mutators import PAYLOAD_TYPES
from repro.scenarios.library import SCENARIOS
from repro.scenarios.spec import DelayRuleOn
from repro.sim.events import Simulator
from repro.sim.network import Network
from repro.sim.process import VIEW_POLICIES, Process, ProcessContext
from repro.smr.replica import SMRReplica

SRC = Path(repro.__file__).parent


def _process_classes():
    found = {}
    for package in ("core", "baselines", "smr"):
        for info in pkgutil.iter_modules([str(SRC / package)]):
            module = importlib.import_module(f"repro.{package}.{info.name}")
            for obj in vars(module).values():
                if (
                    inspect.isclass(obj)
                    and issubclass(obj, Process)
                    and obj.__module__ == module.__name__
                ):
                    found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


def _rows(cls):
    """The class's table: its bases' rows, then its own (by type)."""
    rows = {}
    for klass in reversed(cls.__mro__):
        for row in vars(klass).get("MESSAGES", ()):
            rows[row[0]] = row
    return list(rows.values())


PROCESS_CLASSES = _process_classes()


def test_every_protocol_and_the_smr_layer_is_covered():
    names = {cls.__name__ for cls in PROCESS_CLASSES}
    assert {
        "FBFTBase", "FastBFTProcess", "GeneralizedFBFTProcess", "PBFTProcess",
        "FaBProcess", "PaxosProcess", "OptimisticProcess", "SMRReplica",
        "SMRClient",
    } <= names


@pytest.mark.parametrize("cls", PROCESS_CLASSES, ids=lambda c: c.__name__)
def test_the_table_is_the_only_route(cls):
    rows = _rows(cls)
    for ptype, handler, policy, kind, quorum in rows:
        assert callable(getattr(cls, handler, None)), (ptype, handler)
        assert policy in VIEW_POLICIES, (ptype, policy)
    reached = Counter(row[1] for row in rows)
    for name in dir(cls):
        if name.startswith("_handle_"):
            assert reached[name] == 1, f"{cls.__name__}.{name}"
    assert "on_message" not in vars(cls)


# ----------------------------------------------------------------------
# The four view policies, on one tiny process
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Current:
    view: int


@dataclass(frozen=True)
class Exact:
    view: int


@dataclass(frozen=True)
class Fresh:
    view: int


@dataclass(frozen=True)
class Ungated:
    view: int


class LateCurrent(Current):
    pass


class Tiny(Process):
    MESSAGES = (
        (Current, "_seen", "current", "tiny", None),
        (Exact, "_seen", "exact", "tiny", None),
        (Fresh, "_seen", "fresh", "tiny", None),
        (Ungated, "_seen", "none", "tiny", None),
    )

    def __init__(self):
        super().__init__(0)
        self.view = 2
        self._future = {}
        self.seen = []
        sim = Simulator()
        self.attach(ProcessContext(0, sim, Network(sim)))

    def _seen(self, sender, message):
        self.seen.append(message)

    def enter_view(self, view):
        self.view = view
        for sender, payload in self._future.pop(view, []):
            self.on_message(sender, payload)


def _deliver(proc, *payloads):
    for payload in payloads:
        proc._dispatch(1, payload)
    return proc.seen


def test_current_buffers_the_future_replays_it_and_drops_the_past():
    proc = Tiny()
    assert _deliver(proc, Current(1), Current(3), Current(2)) == [Current(2)]
    assert proc._future == {3: [(1, Current(3))]}
    proc.enter_view(3)
    assert proc.seen == [Current(2), Current(3)] and proc._future == {}


def test_exact_drops_past_and_future():
    assert _deliver(Tiny(), Exact(1), Exact(3), Exact(2)) == [Exact(2)]


def test_fresh_drops_only_the_past():
    assert _deliver(Tiny(), Fresh(1), Fresh(3), Fresh(2)) == [Fresh(3), Fresh(2)]


def test_none_passes_every_view():
    seen = _deliver(Tiny(), Ungated(1), Ungated(3), Ungated(2))
    assert seen == [Ungated(1), Ungated(3), Ungated(2)]


def test_a_subclass_type_takes_its_base_row_and_unknown_types_are_ignored():
    proc = Tiny()
    assert _deliver(proc, LateCurrent(2), LateCurrent(5), ("noise",)) == [
        LateCurrent(2)
    ]
    assert proc._future == {5: [(1, LateCurrent(5))]}
    assert Tiny._routes[LateCurrent] == Tiny._routes[Current]
    assert Tiny._routes[tuple] is None


def test_a_halted_process_takes_no_step():
    proc = Tiny()
    proc.crash()
    assert _deliver(proc, Ungated(2)) == []


@pytest.mark.parametrize("row, error", [
    ((Exact, "_seen", "stale", "tiny", None), TypeError),  # unknown policy
    ((Exact, "_missing", "exact", "tiny", None), AttributeError),
    ((tuple, "_seen", "fresh", "tiny", None), TypeError),  # nothing to gate
    ((Exact, "_seen", "exact", "propose", None), TypeError),  # other facts
])
def test_a_bad_row_fails_at_class_creation(row, error):
    with pytest.raises(error):
        type("Bad", (Tiny,), {"MESSAGES": (row,)})


def test_a_table_and_an_on_message_override_do_not_mix():
    with pytest.raises(TypeError):
        type("Both", (Tiny,), {"on_message": lambda self, sender, payload: None})


# ----------------------------------------------------------------------
# Payload types kept as strings name rows of their family's table
# ----------------------------------------------------------------------

FAMILY = {
    "fbft": GeneralizedFBFTProcess,
    "pbft": PBFTProcess,
    "fab": FaBProcess,
    "paxos": PaxosProcess,
    "optimistic": OptimisticProcess,
    "fbft-smr": SMRReplica,
    "pbft-smr": SMRReplica,
}


def _row_names(cls):
    return {row[0].__name__ for row in _rows(cls)}


@pytest.mark.parametrize("family", sorted(PAYLOAD_TYPES))
def test_fuzzer_stasher_types_are_table_rows(family):
    assert set(PAYLOAD_TYPES[family]) <= _row_names(FAMILY[family])


def test_library_stasher_types_are_table_rows():
    for spec in SCENARIOS.values():
        for event in spec.faults:
            if isinstance(event, DelayRuleOn) and event.payload_types:
                assert set(event.payload_types) <= _row_names(FAMILY[spec.protocol])


def test_smr_stasher_types_are_table_rows():
    names = [
        const.value
        for node in ast.walk(ast.parse((SRC / "scenarios/adapters.py").read_text()))
        if isinstance(node, ast.keyword) and node.arg == "payload_types"
        for const in ast.walk(node.value)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    ]
    assert names and set(names) <= _row_names(SMRReplica)
