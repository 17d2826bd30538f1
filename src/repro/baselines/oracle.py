"""Centralized oracle allocator (the paper's FERMI [20] stand-in).

Figure 9(b) compares CellFi against "a centralized, oracle-based
state-of-the-art OFDMA resource isolation scheme": an allocator that knows
the *true* interference graph and client counts and hands out subchannels
so that no two conflicting cells share one.  CellFi's claim is that its
decentralized algorithm gets close to this upper bound.

The allocation is a weighted graph colouring computed by progressive
filling: repeatedly grant one more subchannel to the AP with the lowest
subchannels-per-client ratio that can still take one without conflicting,
until no AP can grow.  This is max-min fair on the conflict graph and
conflict-free by construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.lte.network import ApObservation, LteNetworkSimulator
from repro.phy.harq import harq_goodput_scale
from repro.utils.dbmath import thermal_noise_dbm


def build_conflict_graph(
    net: LteNetworkSimulator, interference_margin_db: float = -6.0
) -> nx.Graph:
    """The true AP conflict graph from perfect channel knowledge.

    AP ``j`` conflicts with AP ``i`` if ``j``'s downlink would land within
    ``interference_margin_db`` of the noise floor at any of ``i``'s clients
    (i.e. raise it materially), or vice versa.  The oracle -- unlike CellFi
    -- gets to read these true received powers directly.
    """
    graph = nx.Graph()
    topology = net.topology
    graph.add_nodes_from(ap.ap_id for ap in topology.aps)
    noise_rb_dbm = net._rb_noise_dbm
    for ap_a in topology.aps:
        for ap_b in topology.aps:
            if ap_a.ap_id >= ap_b.ap_id:
                continue
            conflict = False
            for client in topology.clients_of(ap_a.ap_id):
                rx = net.rx_rb_power_dbm(client.client_id, ap_b.ap_id)
                if rx >= noise_rb_dbm + interference_margin_db:
                    conflict = True
                    break
            if not conflict:
                for client in topology.clients_of(ap_b.ap_id):
                    rx = net.rx_rb_power_dbm(client.client_id, ap_a.ap_id)
                    if rx >= noise_rb_dbm + interference_margin_db:
                        conflict = True
                        break
            if conflict:
                graph.add_edge(ap_a.ap_id, ap_b.ap_id)
    return graph


class IsolationOracle:
    """Perfect-information, conflict-free, max-min-fair subchannel allocation.

    A pure resource-isolation allocator: no two conflicting cells ever
    share a subchannel.  On dense deployments the conflict graph is nearly
    complete and isolation wastes spectrum; :class:`OracleAllocator`
    improves on it with utility-driven local search.

    Args:
        net: the system simulator (read for true powers and client counts).
        n_subchannels: carrier size.
        interference_margin_db: conflict threshold for the graph.
    """

    def __init__(
        self,
        net: LteNetworkSimulator,
        n_subchannels: int,
        interference_margin_db: float = -6.0,
    ) -> None:
        if n_subchannels <= 0:
            raise ValueError(f"need subchannels, got {n_subchannels}")
        self.n_subchannels = n_subchannels
        self.graph = build_conflict_graph(net, interference_margin_db)
        self._clients = {
            ap.ap_id: max(1, len(net.topology.clients_of(ap.ap_id)))
            for ap in net.topology.aps
        }
        self.allocation = self._progressive_fill()

    def _progressive_fill(self) -> Dict[int, Set[int]]:
        allocation: Dict[int, Set[int]] = {ap: set() for ap in self.graph.nodes}

        def can_take(ap: int) -> Optional[int]:
            taken = set(allocation[ap])
            for neighbour in self.graph.neighbors(ap):
                taken |= allocation[neighbour]
            for k in range(self.n_subchannels):
                if k not in taken:
                    return k
            return None

        progress = True
        while progress:
            progress = False
            # Lowest per-client allocation first: max-min fairness.
            order = sorted(
                self.graph.nodes,
                key=lambda ap: (len(allocation[ap]) / self._clients[ap], ap),
            )
            for ap in order:
                k = can_take(ap)
                if k is not None:
                    allocation[ap].add(k)
                    progress = True
                    break
        return allocation

    def decide(
        self,
        epoch_index: int,
        observations: Optional[Dict[int, ApObservation]],
    ) -> Dict[int, Set[int]]:
        """SubchannelPolicy hook: the precomputed static allocation."""
        return {ap: set(subs) for ap, subs in self.allocation.items()}

    def is_conflict_free(self) -> bool:
        """Invariant check: no edge shares a subchannel."""
        for a, b in self.graph.edges:
            if self.allocation[a] & self.allocation[b]:
                return False
        return True


class OracleAllocator:
    """The Figure 9(b) upper bound: centralized proportional-fair allocation.

    Starts from the conflict-free :class:`IsolationOracle` assignment and
    runs local search over (AP, subchannel) toggles, maximising the global
    proportional-fairness objective ``sum_u log(T_u)`` with true, perfect
    channel knowledge.  ``T_u`` is the analytic throughput of client ``u``
    assuming each AP time-shares every held subchannel equally among its
    clients -- the same fluid model the system simulator realises.

    Unlike the isolation allocator it will deliberately *reuse* a
    subchannel across cells when the affected clients barely notice,
    which is what makes it a meaningful upper bound for CellFi.
    """

    def __init__(
        self,
        net: LteNetworkSimulator,
        n_subchannels: int,
        interference_margin_db: float = -6.0,
        max_passes: int = 6,
    ) -> None:
        if n_subchannels <= 0:
            raise ValueError(f"need subchannels, got {n_subchannels}")
        self.net = net
        self.n_subchannels = n_subchannels
        seed_oracle = IsolationOracle(net, n_subchannels, interference_margin_db)
        self.graph = seed_oracle.graph
        self.allocation: Dict[int, Set[int]] = {
            ap: set(subs) for ap, subs in seed_oracle.allocation.items()
        }
        self._ap_clients = {
            ap.ap_id: [c.client_id for c in net.topology.clients_of(ap.ap_id)]
            for ap in net.topology.aps
        }
        self._local_search(max_passes)

    # -- Analytic throughput model ------------------------------------------------

    def _column_rates(
        self, sub: int, harq_memo: Dict[Tuple[float, int], float]
    ) -> Dict[int, float]:
        """Per-client rate on subchannel ``sub`` under current holders.

        ``harq_memo`` caches :func:`harq_goodput_scale` on (SINR, CQI) for
        one solve: the exact function outputs, so memoised and direct
        evaluation give the same bits.

        SINRs are computed from the simulator's cached power matrix in one
        vector operation per holder; interference accumulates in holder
        order and the dB conversion goes through ``math.log10``, so results
        are bit-identical to per-link ``net.sinr_db`` queries (the local
        search toggles thousands of columns, making this the hot path).
        """
        import math

        import numpy as np

        from repro.phy.mcs import CQI_OUT_OF_RANGE, cqi_from_sinr, efficiency_from_cqi

        net = self.net
        power_w = net._rx_w_mat
        holders = [ap for ap, subs in self.allocation.items() if sub in subs]
        rates: Dict[int, float] = {}
        for ap in holders:
            clients = self._ap_clients[ap]
            if not clients:
                continue
            rows = net._rows_of_ap[ap]
            signal_w = power_w[rows, net._ap_col[ap]]
            interference_w = np.zeros(len(rows))
            for other in holders:
                if other != ap:
                    interference_w += power_w[rows, net._ap_col[other]]
            ratios = (signal_w / (net._rb_noise_w + interference_w)).tolist()
            for i, cid in enumerate(clients):
                sinr = 10.0 * math.log10(ratios[i])
                cqi = cqi_from_sinr(sinr)
                if cqi == CQI_OUT_OF_RANGE:
                    rates[cid] = 0.0
                    continue
                rate = self.net.grid.subchannel_downlink_rate_bps(
                    efficiency_from_cqi(cqi), sub
                )
                key = (sinr, cqi)
                scale = harq_memo.get(key)
                if scale is None:
                    scale = harq_memo[key] = harq_goodput_scale(sinr, cqi)
                rates[cid] = rate * scale / len(clients)
        return rates

    def _objective(self, column_rates: Dict[int, Dict[int, float]]) -> float:
        """Global proportional fairness: sum of log client throughputs."""
        import math

        totals: Dict[int, float] = {}
        for rates in column_rates.values():
            for cid, rate in rates.items():
                totals[cid] = totals.get(cid, 0.0) + rate
        objective = 0.0
        for client in self.net.topology.clients:
            throughput = totals.get(client.client_id, 0.0)
            objective += math.log(1e3 + throughput)
        return objective

    def _local_search(self, max_passes: int) -> None:
        # The search re-evaluates the same links thousands of times; the
        # HARQ memo lives for this one solve.
        harq_memo: Dict[Tuple[float, int], float] = {}
        columns = {
            k: self._column_rates(k, harq_memo) for k in range(self.n_subchannels)
        }
        best = self._objective(columns)
        for _ in range(max_passes):
            improved = False
            for ap in self.allocation:
                if not self._ap_clients[ap]:
                    continue
                for sub in range(self.n_subchannels):
                    holding = sub in self.allocation[ap]
                    if holding:
                        self.allocation[ap].discard(sub)
                    else:
                        self.allocation[ap].add(sub)
                    new_column = self._column_rates(sub, harq_memo)
                    old_column = columns[sub]
                    columns[sub] = new_column
                    candidate = self._objective(columns)
                    if candidate > best + 1e-9:
                        best = candidate
                        improved = True
                    else:
                        # Revert the toggle.
                        columns[sub] = old_column
                        if holding:
                            self.allocation[ap].add(sub)
                        else:
                            self.allocation[ap].discard(sub)
            if not improved:
                break

    # -- SubchannelPolicy interface ----------------------------------------------------

    def decide(
        self,
        epoch_index: int,
        observations: Optional[Dict[int, ApObservation]],
    ) -> Dict[int, Set[int]]:
        """SubchannelPolicy hook: the precomputed static allocation."""
        return {ap: set(subs) for ap, subs in self.allocation.items()}
