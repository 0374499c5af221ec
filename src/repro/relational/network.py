"""Simulated network between the mediator and the data sources.

Implements the paper's communication-cost function ``trans_cost(S1, S2, B)``:
zero when ``S1 == S2``; otherwise the data travels source -> mediator ->
source, i.e. two hops unless one endpoint *is* the mediator.  Each hop costs
``latency + bytes / bandwidth``; the paper's Figure 10 uses a uniform
1 Mbps.
"""

from __future__ import annotations

from repro.relational.source import MEDIATOR_NAME

#: 1 Mbps expressed in bytes/second (the paper quotes bandwidth in bits).
MBPS = 1_000_000 / 8


class Network:
    """Topology + cost model for shipping data between sources."""

    def __init__(self, bandwidth_bytes_per_s: float = MBPS,
                 latency_seconds: float = 0.01):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if latency_seconds < 0:
            raise ValueError("latency must be non-negative")
        self.bandwidth = bandwidth_bytes_per_s
        self.latency = latency_seconds
        # (fixed_seconds, seconds_per_byte) of a one-hop and a two-hop route
        self._one_hop = (latency_seconds, 1.0 / bandwidth_bytes_per_s)
        self._two_hops = (2.0 * latency_seconds, 2.0 / bandwidth_bytes_per_s)

    @classmethod
    def mbps(cls, megabits_per_second: float,
             latency_seconds: float = 0.01) -> "Network":
        """Construct from a bandwidth in megabits/second (paper's unit)."""
        return cls(megabits_per_second * MBPS, latency_seconds)

    def trans_cost(self, source: str, target: str, nbytes: float) -> float:
        """Seconds to move ``nbytes`` from ``source`` to ``target``.

        Matches Section 5.2: same source -> 0; neither endpoint the mediator
        -> routed via the mediator (two hops).
        """
        if source == target:
            return 0.0
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        fixed, per_byte = (self._one_hop if source == MEDIATOR_NAME
                           or target == MEDIATOR_NAME else self._two_hops)
        return fixed + nbytes * per_byte

    def __repr__(self) -> str:
        mbps_value = self.bandwidth / MBPS
        return f"Network({mbps_value:g} Mbps, latency={self.latency:g}s)"
