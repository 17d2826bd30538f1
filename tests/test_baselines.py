"""Unit tests for the baseline policies and the oracle allocators."""

import numpy as np
import pytest

from repro.baselines.oracle import (
    IsolationOracle,
    OracleAllocator,
    build_conflict_graph,
)
from repro.baselines.plain_lte import PlainLtePolicy
from repro.lte.network import LteNetworkSimulator
from repro.phy.propagation import CompositeChannel, UrbanHataPathLoss
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    AccessPointSite,
    ClientSite,
    Topology,
    random_topology,
    reassociate_strongest,
)


def _net(topology, seed=1):
    return LteNetworkSimulator(
        topology,
        ResourceGrid(5e6),
        CompositeChannel(UrbanHataPathLoss()),
        RngStreams(seed),
    )


def _clustered_pair(separation_m):
    aps = [AccessPointSite(0, 0.0, 0.0), AccessPointSite(1, separation_m, 0.0)]
    clients = [
        ClientSite(0, 100.0, 0.0, ap_id=0),
        ClientSite(1, separation_m - 100.0, 0.0, ap_id=1),
    ]
    return Topology(area_m=separation_m + 200.0, aps=aps, clients=clients)


class TestPlainLte:
    def test_always_full_carrier(self):
        policy = PlainLtePolicy([0, 1, 2], 13)
        decisions = policy.decide(0, None)
        assert all(d == set(range(13)) for d in decisions.values())

    def test_returns_copies(self):
        policy = PlainLtePolicy([0], 13)
        decisions = policy.decide(0, None)
        decisions[0].clear()
        assert policy.decide(1, None)[0] == set(range(13))

    def test_validation(self):
        with pytest.raises(ValueError):
            PlainLtePolicy([0], 0)


class TestConflictGraph:
    def test_close_cells_conflict(self):
        net = _net(_clustered_pair(600.0))
        graph = build_conflict_graph(net)
        assert graph.has_edge(0, 1)

    def test_distant_cells_do_not_conflict(self):
        # Hata loss at ~9 km puts the interferer far below noise.
        net = _net(_clustered_pair(9000.0))
        graph = build_conflict_graph(net)
        assert not graph.has_edge(0, 1)

    def test_all_aps_are_nodes(self):
        net = _net(_clustered_pair(600.0))
        graph = build_conflict_graph(net)
        assert set(graph.nodes) == {0, 1}


class TestIsolationOracle:
    def test_conflict_free(self):
        rngs = RngStreams(3)
        topo = random_topology(rngs.stream("t"), n_aps=6, clients_per_ap=3)
        net = _net(topo, seed=3)
        oracle = IsolationOracle(net, 13)
        assert oracle.is_conflict_free()

    def test_all_subchannels_used_when_isolated(self):
        net = _net(_clustered_pair(9000.0))
        oracle = IsolationOracle(net, 13)
        assert oracle.allocation[0] == set(range(13))
        assert oracle.allocation[1] == set(range(13))

    def test_conflicting_pair_splits_carrier(self):
        net = _net(_clustered_pair(600.0))
        oracle = IsolationOracle(net, 13)
        assert not (oracle.allocation[0] & oracle.allocation[1])
        total = len(oracle.allocation[0]) + len(oracle.allocation[1])
        assert total == 13  # Maximal.

    def test_decide_interface(self):
        net = _net(_clustered_pair(600.0))
        oracle = IsolationOracle(net, 13)
        decisions = oracle.decide(0, None)
        assert decisions == oracle.allocation

    def test_validation(self):
        net = _net(_clustered_pair(600.0))
        with pytest.raises(ValueError):
            IsolationOracle(net, 0)


class TestPfOracle:
    def test_at_least_isolation_quality(self):
        # Local search starts from the isolation solution and only accepts
        # improvements; realised throughput must not regress.
        rngs = RngStreams(5)
        topo = random_topology(rngs.stream("t"), n_aps=5, clients_per_ap=3)
        topo = reassociate_strongest(
            topo, CompositeChannel(UrbanHataPathLoss()).loss_matrix(
                topo.aps, topo.clients
            )
        )
        demands = {c.client_id: float("inf") for c in topo.clients}

        def run_with(policy_cls):
            net = _net(topo, seed=5)
            policy = policy_cls(net, 13)
            results = net.run(6, policy, lambda e: demands)
            return np.mean(
                [sum(r.throughput_bps.values()) for r in results[2:]]
            )

        assert run_with(OracleAllocator) >= 0.95 * run_with(IsolationOracle)

    def test_isolated_cells_get_everything(self):
        net = _net(_clustered_pair(9000.0))
        oracle = OracleAllocator(net, 13)
        assert oracle.allocation[0] == set(range(13))
        assert oracle.allocation[1] == set(range(13))

    def test_static_decisions(self):
        net = _net(_clustered_pair(600.0))
        oracle = OracleAllocator(net, 13)
        first = oracle.decide(0, None)
        second = oracle.decide(5, None)
        assert first == second

    def test_empty_cell_gets_no_special_treatment(self):
        aps = [AccessPointSite(0, 0.0, 0.0), AccessPointSite(1, 500.0, 0.0)]
        clients = [ClientSite(0, 100.0, 0.0, ap_id=0)]
        topo = Topology(area_m=700.0, aps=aps, clients=clients)
        net = _net(topo)
        oracle = OracleAllocator(net, 13)
        # The serving cell should take the whole carrier for its client.
        assert len(oracle.allocation[0]) == 13
