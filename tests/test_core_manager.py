"""Integration tests for the CellFi interference manager."""

import numpy as np
import pytest

from repro.core.interference.manager import CellFiInterferenceManager
from repro.lte.network import LteNetworkSimulator
from repro.phy.propagation import (
    CompositeChannel,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import random_topology, reassociate_strongest

N_SUBS = 13


def _manager(ap_ids=(0, 1), **kwargs):
    return CellFiInterferenceManager(ap_ids, N_SUBS, RngStreams(5), **kwargs)


def _scenario(seed=7, n_aps=5):
    rngs = RngStreams(seed)
    channel = CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(7.0, seed=seed)
    )
    topo = random_topology(
        rngs.stream("topo"), n_aps=n_aps, clients_per_ap=4, client_range_m=800.0
    )
    topo = reassociate_strongest(topo, channel.loss_matrix(topo.aps, topo.clients))
    net = LteNetworkSimulator(topo, ResourceGrid(5e6), channel, rngs.fork("net"))
    return topo, net


class TestFirstEpoch:
    def test_first_epoch_uses_full_carrier(self):
        manager = _manager()
        decisions = manager.decide(0, None)
        assert decisions[0] == set(range(N_SUBS))
        assert decisions[1] == set(range(N_SUBS))


class TestClosedLoop:
    def test_shares_respect_formula(self):
        from repro.core.interference.share import compute_share

        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        manager = _manager(ap_ids=ap_ids)
        demands = {c.client_id: float("inf") for c in topo.clients}
        obs = None
        for epoch in range(4):
            decisions = manager.decide(epoch, obs)
            result = net.run_epoch(epoch, decisions, demands)
            obs = result.observations
        manager.decide(4, obs)
        for ap_id in ap_ids:
            expected = compute_share(
                N_SUBS,
                obs[ap_id].n_active_clients,
                obs[ap_id].estimated_contenders,
            )
            assert manager.stats.last_shares[ap_id] == expected

    def test_holdings_match_decisions(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        manager = _manager(ap_ids=ap_ids)
        demands = {c.client_id: float("inf") for c in topo.clients}
        obs = None
        for epoch in range(4):
            decisions = manager.decide(epoch, obs)
            result = net.run_epoch(epoch, decisions, demands)
            obs = result.observations
        for ap_id in ap_ids:
            if manager.hoppers[ap_id].holdings:
                assert decisions[ap_id] == manager.hoppers[ap_id].holdings

    def test_improves_on_plain_lte(self):
        # The headline: CellFi reduces starvation vs uncoordinated LTE.
        from repro.baselines.plain_lte import PlainLtePolicy

        topo, net_cellfi = _scenario(seed=11, n_aps=8)
        demands = {c.client_id: float("inf") for c in topo.clients}
        ap_ids = [a.ap_id for a in topo.aps]
        manager = CellFiInterferenceManager(ap_ids, N_SUBS, RngStreams(5))
        cellfi = net_cellfi.run(10, manager, lambda e: demands)

        _, net_lte = _scenario(seed=11, n_aps=8)
        lte = net_lte.run(10, PlainLtePolicy(ap_ids, N_SUBS), lambda e: demands)

        def starved(results):
            return np.mean(
                [[not v for v in r.connected.values()] for r in results[5:]]
            )

        assert starved(cellfi) <= starved(lte)

    def test_stats_accumulate(self):
        topo, net = _scenario()
        manager = _manager(ap_ids=[a.ap_id for a in topo.aps])
        demands = {c.client_id: float("inf") for c in topo.clients}
        net.run(6, manager, lambda e: demands)
        assert manager.stats.epochs == 5  # First epoch has no observations.

    def test_share_override(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        override = {ap: 2 for ap in ap_ids}
        manager = CellFiInterferenceManager(
            ap_ids, N_SUBS, RngStreams(5), share_override=override
        )
        demands = {c.client_id: float("inf") for c in topo.clients}
        net.run(4, manager, lambda e: demands)
        for ap_id in ap_ids:
            assert len(manager.hoppers[ap_id].holdings) == 2

    def test_reuse_can_be_disabled(self):
        manager = _manager(reuse_enabled=False)
        for hopper in manager.hoppers.values():
            assert not hopper.config.reuse_enabled

    def test_missing_observation_keeps_holdings(self):
        manager = _manager(ap_ids=[0, 1])
        manager.decide(0, None)
        # Observation dict covering only AP 0.
        from repro.lte.network import ApObservation

        obs = {0: ApObservation(ap_id=0, n_active_clients=1, estimated_contenders=2)}
        decisions = manager.decide(1, obs)
        assert decisions[1]  # AP 1 still has a usable decision.
