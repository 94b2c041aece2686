"""Per-slot consensus backends the SMR engine can replicate over.

One construction site for the ``(config, registry, instance_factory)``
triple, used by the scenario adapters (``fbft-smr`` / ``pbft-smr``),
through which every SMR run and experiment deploys.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..crypto.keys import KeyRegistry
from .replica import InstanceFactory, fbft_instance_factory

__all__ = ["SMR_BACKENDS", "smr_backend"]

#: Backend names accepted by :func:`smr_backend`.
SMR_BACKENDS = ("fbft", "pbft")


def smr_backend(
    backend: str,
    n: int,
    f: int,
    t: int = 1,
    base_timeout: float = 12.0,
) -> Tuple[Any, Optional[KeyRegistry], InstanceFactory]:
    """Build ``(config, registry-or-None, per-slot instance factory)``.

    ``fbft`` is this paper's protocol: the Section 3 one at ``t = f``,
    the generalized one of Appendix A at ``t < f`` (see
    :func:`~repro.smr.replica.fbft_instance_factory`; both need the
    registry for their signatures); ``pbft`` is the unsigned baseline,
    so its registry slot is ``None``.
    """
    if backend == "fbft":
        from ..core.config import ProtocolConfig

        config = ProtocolConfig(n=n, f=f, t=t)
        registry = KeyRegistry.for_processes(config.process_ids)
        factory = fbft_instance_factory(
            config, registry, base_timeout=base_timeout
        )
        return config, registry, factory
    if backend == "pbft":
        from ..baselines.pbft import PBFTConfig, PBFTProcess

        config = PBFTConfig(n=n, f=f)

        def factory(pid: int, slot: int, input_value: Any) -> PBFTProcess:
            return PBFTProcess(pid, config, input_value, base_timeout=base_timeout)

        return config, None, factory
    raise ValueError(
        f"unknown SMR backend {backend!r}; known: {', '.join(SMR_BACKENDS)}"
    )
