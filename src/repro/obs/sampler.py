"""Periodic state sampling: Figure-5-style time series for any run.

The paper's Figure 5 plots, for every receiver over time, the packets
pending for it; the O/B/D/W sizing arguments of Section 2.4 are really
claims about *occupancy distributions* (how full the pool gets, how often
the OPT saturates, how many dialogs are open at once).  The
:class:`StateSampler` snapshots exactly that state on a fixed cycle
cadence:

* per-receiver pending packets (injected, not yet accepted),
* per-node outgoing-pool occupancy and OPT fill,
* per-node open receiver dialogs,
* per-link busy fraction over the *last interval* (not cumulative),
* network-wide packets in flight and acks in flight.

Sampling is read-only -- it never mutates protocol or kernel state beyond
scheduling its own next tick -- so an instrumented run delivers exactly the
same packets at exactly the same cycles as an uninstrumented one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim import Simulator


class StateSampler:
    """Snapshots per-node/per-link protocol state every ``interval`` cycles.

    ``collector`` (a :class:`~repro.metrics.MetricsCollector`) supplies the
    per-receiver pending counts; NICs are duck-typed, so plain/buffered
    NICs (no pool, no OPT) sample as zeros rather than erroring.
    """

    def __init__(
        self,
        sim: Simulator,
        nics: Sequence,
        links: Sequence,
        collector,
        interval: int = 1000,
        max_samples: int = 100_000,
    ):
        if interval < 1:
            raise ValueError("sample interval must be at least 1 cycle")
        self.sim = sim
        self.nics = list(nics)
        self.links = list(links)
        self.collector = collector
        self.interval = interval
        self.max_samples = max_samples
        # time series (parallel lists, one entry per sample)
        self.cycles: List[int] = []
        self.pending: List[List[int]] = []
        self.pool_occupancy: List[List[int]] = []
        self.opt_fill: List[List[int]] = []
        self.open_dialogs: List[List[int]] = []
        self.link_busy: List[List[float]] = []
        self.packets_in_network: List[int] = []
        self.acks_in_flight: List[int] = []
        self.dropped_samples = 0
        self._last_busy = [link.busy_cycles for link in self.links]
        self._last_cycle: Optional[int] = None
        self._running = False

    # ------------------------------------------------------------ control
    def start(self) -> None:
        self._running = True
        self._sample()

    def stop(self) -> None:
        self._running = False

    # ----------------------------------------------------------- sampling
    def _sample(self) -> None:
        if not self._running:
            return
        if len(self.cycles) >= self.max_samples:
            self.dropped_samples += 1
        else:
            self._record()
        self.sim.schedule(self.interval, self._sample)

    def _record(self) -> None:
        now = self.sim.now
        self.cycles.append(now)
        pools, opts, dialogs = [], [], []
        acks_out = 0
        for nic in self.nics:
            pool, opt, rx = nic.pool, nic.opt, nic.rx_dialogs
            pools.append(len(pool) if pool is not None else 0)
            opts.append(len(opt) if opt is not None else 0)
            dialogs.append(len(rx) if rx is not None else 0)
            acks_out += nic.acks_sent - nic.acks_received
        self.pool_occupancy.append(pools)
        self.opt_fill.append(opts)
        self.open_dialogs.append(dialogs)
        # Acks sent by every receiver minus acks consumed by every sender
        # = acks currently riding the reply network.
        self.acks_in_flight.append(acks_out)
        pending = list(self.collector.pending_per_receiver)
        self.pending.append(pending)
        self.packets_in_network.append(sum(pending))
        # Per-link busy fraction over the elapsed interval.
        span = now - self._last_cycle if self._last_cycle is not None else 0
        busy = []
        for i, link in enumerate(self.links):
            if span > 0:
                frac = (link.busy_cycles - self._last_busy[i]) / span
            else:
                frac = 0.0
            busy.append(round(min(1.0, frac), 4))
            self._last_busy[i] = link.busy_cycles
        self.link_busy.append(busy)
        self._last_cycle = now

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self.cycles)

    def peak_pool(self) -> int:
        return max((max(row) for row in self.pool_occupancy), default=0)

    def peak_opt(self) -> int:
        return max((max(row) for row in self.opt_fill), default=0)

    def peak_in_network(self) -> int:
        return max(self.packets_in_network, default=0)

    def peak_pending(self) -> int:
        """Worst per-receiver backlog seen in any sample."""
        return max((max(row) for row in self.pending), default=0)

    def mean_peak_pending(self) -> float:
        """Average (over samples) of the worst per-receiver backlog --
        low values mean even utilisation of receivers, the behaviour
        Figure 5 shows NIFDY restoring."""
        if not self.pending:
            return 0.0
        return sum(max(row) for row in self.pending) / len(self.pending)

    def heatmap_rows(self, shades: str = " .:-=+*#%@") -> List[str]:
        """ASCII rendering of Figure 5: one row per sample, one column per
        receiver; darker characters mean more pending packets (saturating
        at 20, like the paper's black)."""
        top = len(shades) - 1
        return [
            "".join(shades[min(top, n * top // 20)] for n in row)
            for row in self.pending
        ]

    def mean_link_busy(self) -> float:
        """Mean busy fraction over every link and sample (skips sample 0,
        which has no elapsed interval to measure)."""
        rows = self.link_busy[1:]
        total = sum(sum(row) for row in rows)
        cells = sum(len(row) for row in rows)
        return total / cells if cells else 0.0

    def to_dict(self) -> Dict:
        """JSON-ready time series (per-node series transposed per sample)."""
        return {
            "interval": self.interval,
            "cycles": self.cycles,
            "pool_occupancy": self.pool_occupancy,
            "opt_fill": self.opt_fill,
            "open_dialogs": self.open_dialogs,
            "packets_in_network": self.packets_in_network,
            "acks_in_flight": self.acks_in_flight,
            "link_busy_mean": [
                round(sum(row) / len(row), 4) if row else 0.0
                for row in self.link_busy
            ],
            "link_busy_max": [max(row, default=0.0) for row in self.link_busy],
            "dropped_samples": self.dropped_samples,
        }
