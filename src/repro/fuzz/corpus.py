"""The fuzzing corpus: signature-novel specs with energy scheduling.

A corpus entry pairs a reproducible :class:`~repro.scenarios.spec.ScenarioSpec`
(as its JSON dict) with the coverage signature its execution produced.
A spec earns a slot only if its run's *signature* — the whole bucketed
feature combination — is one no earlier entry produced: the AFL
admission rule, at combination granularity, so the corpus holds one
exemplar per distinct behavior rather than an archive of every run.
Mutation needs that breadth (each admitted behavior is a launch point);
:meth:`Corpus.minimize` is the compact view, cutting back to a greedy
set cover over individual features.

Scheduling is energy-weighted: entries whose features are *rare* across
the corpus (few other entries touch them) and that have been mutated
*less often* get proportionally more mutation energy.  Minimization is
the classic greedy set cover over features.  Persistence is canonical
JSON — sorted keys, entries in insertion order — so saving and loading
a corpus is byte-stable and campaign reports stay deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Set, Tuple

from ..scenarios.spec import ScenarioError, ScenarioSpec

__all__ = ["Corpus", "CorpusEntry"]

#: Bumped when the on-disk layout changes incompatibly.
CORPUS_FORMAT = 1


@dataclass
class CorpusEntry:
    """One signature-novel spec and its bookkeeping."""

    key: str  #: signature key of the run that earned the slot
    spec: Dict[str, Any]  #: ``ScenarioSpec.to_dict()`` payload
    features: Tuple[str, ...]
    origin: str  #: ``"seed:<n>"`` or ``"mutant:<index>/<operator>"``
    ok: bool  #: whether every oracle passed (failures stay replayable)
    executions: int = 0  #: events processed by the run (cost proxy)
    chosen: int = 0  #: times picked as a mutation base
    _scenario: Optional[ScenarioSpec] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(corpus generation, rarity sum)`` as :meth:`Corpus.energy` last
    #: computed it; good only while that corpus is at that generation.
    _rarity: Optional[Tuple[object, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def scenario(self) -> ScenarioSpec:
        """``spec`` parsed back into a :class:`ScenarioSpec` — once per
        entry, not per pick (specs are immutable values)."""
        if self._scenario is None:
            self._scenario = ScenarioSpec.from_dict(self.spec)
        return self._scenario

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "spec": self.spec,
            "features": list(self.features),
            "origin": self.origin,
            "ok": self.ok,
            "executions": self.executions,
            "chosen": self.chosen,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CorpusEntry":
        try:
            return cls(
                key=data["key"],
                spec=dict(data["spec"]),
                features=tuple(data["features"]),
                origin=data["origin"],
                ok=bool(data["ok"]),
                executions=int(data.get("executions", 0)),
                chosen=int(data.get("chosen", 0)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ScenarioError(f"malformed corpus entry: {error!r}") from error


@dataclass
class Corpus:
    """An ordered set of signature-novel entries."""

    entries: List[CorpusEntry] = field(default_factory=list)
    #: How many entries cover each feature (rarity for energy weighting).
    feature_counts: Dict[str, int] = field(default_factory=dict)
    #: Signature keys of ``entries`` (the admission test).
    _keys: Set[str] = field(init=False, repr=False, compare=False)
    #: A fresh token per admission: the state of ``feature_counts`` an
    #: entry's cached rarity sum was computed under.  A token, not a
    #: number, because ``minimize`` shares entries between corpora.
    _generation: object = field(
        default_factory=object, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._keys = {entry.key for entry in self.entries}

    def _add(self, entry: CorpusEntry) -> None:
        """The one place an entry joins the corpus (``entries`` and
        ``feature_counts`` are for reading)."""
        self.entries.append(entry)
        self._keys.add(entry.key)
        counts = self.feature_counts
        for feature in entry.features:
            counts[feature] = counts.get(feature, 0) + 1
        self._generation = object()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def consider(
        self,
        spec: ScenarioSpec,
        features: Tuple[str, ...],
        key: str,
        origin: str,
        ok: bool,
        executions: int = 0,
    ) -> Optional[CorpusEntry]:
        """Admit ``spec`` if its run's signature is novel.

        ``features`` is the run's :func:`~.signature.signature_features`
        and ``key`` their :func:`~.signature.signature_key` — computed by
        the caller, who needs them whatever the verdict.  Returns the new
        entry, or ``None`` when some earlier entry already produced the
        exact same signature (the run taught us nothing the corpus does
        not already encode); only an admitted spec is serialized.
        """
        if key in self._keys:
            return None
        entry = CorpusEntry(
            key=key,
            spec=spec.to_dict(),
            features=features,
            origin=origin,
            ok=ok,
            executions=executions,
        )
        self._add(entry)
        return entry

    # ------------------------------------------------------------------
    # Energy-weighted scheduling
    # ------------------------------------------------------------------

    def energy(self, entry: CorpusEntry) -> float:
        """Mutation energy: feature rarity, decayed by prior selections."""
        cached = entry._rarity
        if cached is None or cached[0] is not self._generation:
            rarity = sum(
                1.0 / self.feature_counts.get(feature, 1)
                for feature in entry.features
            )
            cached = entry._rarity = (self._generation, rarity)
        return (1.0 + cached[1]) / (1.0 + entry.chosen)

    def choose(self, rng: Random) -> CorpusEntry:
        """Pick a mutation base, weighted by energy (deterministic in rng)."""
        if not self.entries:
            raise ValueError("cannot choose from an empty corpus")
        weights = [self.energy(entry) for entry in self.entries]
        total = sum(weights)
        point = rng.random() * total
        cumulative = 0.0
        for entry, weight in zip(self.entries, weights):
            cumulative += weight
            if point <= cumulative:
                entry.chosen += 1
                return entry
        entry = self.entries[-1]
        entry.chosen += 1
        return entry

    # ------------------------------------------------------------------
    # Minimization
    # ------------------------------------------------------------------

    def minimize(self) -> "Corpus":
        """Greedy set cover: the smallest entry subset (greedily) that
        still covers every feature the corpus covers.

        Deterministic: candidates are ranked by uncovered-feature gain,
        ties broken by insertion order.  Failing entries are always kept
        — they are reproducers, not just coverage.
        """
        uncovered = set(self.feature_counts)
        kept: List[CorpusEntry] = []
        for entry in self.entries:
            if not entry.ok:
                kept.append(entry)
                uncovered -= set(entry.features)
        remaining = [entry for entry in self.entries if entry.ok]
        while uncovered:
            best = None
            best_gain = 0
            for entry in remaining:
                gain = len(uncovered & set(entry.features))
                if gain > best_gain:
                    best, best_gain = entry, gain
            if best is None:
                break
            kept.append(best)
            remaining.remove(best)
            uncovered -= set(best.features)
        kept.sort(key=lambda e: self.entries.index(e))
        reduced = Corpus()
        for entry in kept:
            reduced._add(entry)
        return reduced

    # ------------------------------------------------------------------
    # Stats + persistence
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        by_protocol: Dict[str, int] = {}
        for entry in self.entries:
            protocol = str(entry.spec.get("protocol", "?"))
            by_protocol[protocol] = by_protocol.get(protocol, 0) + 1
        return {
            "entries": len(self.entries),
            "features": len(self.feature_counts),
            "failing": sum(1 for entry in self.entries if not entry.ok),
            "by_protocol": dict(sorted(by_protocol.items())),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": CORPUS_FORMAT,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Corpus":
        corpus = cls()
        try:
            for payload in data.get("entries", ()):
                corpus._add(CorpusEntry.from_dict(payload))
        except (AttributeError, TypeError) as error:
            raise ScenarioError(f"malformed corpus: {error!r}") from error
        return corpus

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Corpus":
        """The corpus saved at ``path``.  A file that is not one (missing,
        not JSON, or of another shape) raises ``ScenarioError`` naming it."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, ScenarioError, ValueError) as error:
            raise ScenarioError(f"corpus {path}: {error}") from error
