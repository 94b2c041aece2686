"""The generalized protocol (Section 3.4 + Appendix A): n >= 3f + 2t - 1.

Tolerates ``f`` Byzantine faults, decides in two message delays whenever
the actual number of faults is at most ``t``, and in three via the
PBFT-like slow path otherwise:

* fast path — decide on ``n - t`` matching acks;
* slow path — every ack is accompanied by a signed ``AckSig``;
  ``ceil((n + f + 1) / 2)`` of them form a commit certificate ``cc``,
  which is broadcast as ``Commit(cc)`` — the certificate names the value
  and view, so the message does not repeat them; a commit quorum of
  valid ``Commit`` messages decides.

With ``t = 1`` this is (to the paper's knowledge, the first) protocol
with optimal resilience ``n = 3f + 1`` that stays fast in the presence of
a single Byzantine fault.  With ``t = f`` it degenerates to the vanilla
``n >= 5f - 1`` protocol plus a slow path.
"""

from __future__ import annotations

from .fastbft import FBFTBase

__all__ = ["GeneralizedFBFTProcess"]


class GeneralizedFBFTProcess(FBFTBase):
    """Generalized fast Byzantine consensus with the Appendix-A slow path."""

    slow_path_enabled = True
