"""Tests for the Section 7 extensions: channel aggregation and the hybrid
(per-provider centralized) control plane."""

import numpy as np
import pytest

from repro.core.aggregation import (
    BondedCarrier,
    lease_expiry,
    select_bonded_carrier,
)
from repro.core.channel_selection import (
    OCCUPANCY_CELLFI,
    OCCUPANCY_IDLE,
    OCCUPANCY_OTHER,
    OccupancyProbe,
)
from repro.core.interference.hybrid import HybridInterferenceManager
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
from repro.tvws.channels import US_CHANNEL_PLAN
from repro.tvws.database import SpectrumDatabase
from repro.tvws.paws import AvailableSpectrumRequest, DeviceDescriptor, GeoLocation, PawsServer


def _response(withdrawn=()):
    database = SpectrumDatabase(US_CHANNEL_PLAN)
    for channel in withdrawn:
        database.withdraw_channel(channel)
    server = PawsServer(database)
    return server.available_spectrum(
        AvailableSpectrumRequest(
            device=DeviceDescriptor("agg-ap"),
            location=GeoLocation(0.0, 0.0),
            request_time=0.0,
        )
    )


class TestChannelAggregation:
    def test_bonds_four_us_channels_for_20mhz(self):
        carrier = select_bonded_carrier(
            _response(), US_CHANNEL_PLAN, OccupancyProbe(), 20e6
        )
        assert carrier is not None
        assert carrier.bandwidth_hz == 20e6
        assert len(carrier.channels) == 4
        assert carrier.channels == (14, 15, 16, 17)

    def test_falls_back_when_fragmented(self):
        # Withdraw every third channel: max contiguous run is 2 channels
        # (12 MHz), so only a 10 MHz carrier fits.
        withdrawn = [ch.number for ch in US_CHANNEL_PLAN.channels if ch.number % 3 == 0]
        carrier = select_bonded_carrier(
            _response(withdrawn), US_CHANNEL_PLAN, OccupancyProbe(), 20e6
        )
        assert carrier is not None
        assert carrier.bandwidth_hz == 10e6
        assert len(carrier.channels) == 2

    def test_no_fallback_mode(self):
        withdrawn = [ch.number for ch in US_CHANNEL_PLAN.channels if ch.number % 3 == 0]
        carrier = select_bonded_carrier(
            _response(withdrawn),
            US_CHANNEL_PLAN,
            OccupancyProbe(),
            20e6,
            allow_fallback=False,
        )
        assert carrier is None

    def test_prefers_idle_run(self):
        # Channels 14-17 overlap another technology; 18-21 are idle.
        def classify(channel):
            return OCCUPANCY_OTHER if channel <= 17 else OCCUPANCY_IDLE

        carrier = select_bonded_carrier(
            _response(), US_CHANNEL_PLAN, OccupancyProbe(classify), 20e6
        )
        assert carrier.channels == (18, 19, 20, 21)
        assert carrier.worst_occupancy == OCCUPANCY_IDLE

    def test_worst_occupancy_dominates_run(self):
        # One CellFi-occupied channel inside the run colours the whole run.
        def classify(channel):
            return OCCUPANCY_CELLFI if channel == 15 else OCCUPANCY_IDLE

        carrier = select_bonded_carrier(
            _response(), US_CHANNEL_PLAN, OccupancyProbe(classify), 20e6
        )
        # The selector skips to a fully idle placement.
        assert 15 not in carrier.channels

    def test_center_frequency_inside_run(self):
        carrier = select_bonded_carrier(
            _response(), US_CHANNEL_PLAN, OccupancyProbe(), 10e6
        )
        low = US_CHANNEL_PLAN.channel(carrier.channels[0]).low_hz
        high = US_CHANNEL_PLAN.channel(carrier.channels[-1]).high_hz
        assert low < carrier.center_hz < high

    def test_lease_expiry_is_earliest_member(self):
        response = _response()
        carrier = select_bonded_carrier(
            response, US_CHANNEL_PLAN, OccupancyProbe(), 20e6
        )
        expiry = lease_expiry(response, carrier)
        assert expiry == min(
            response.spec_for(ch).expires_at for ch in carrier.channels
        )

    def test_empty_response(self):
        withdrawn = [ch.number for ch in US_CHANNEL_PLAN.channels]
        assert (
            select_bonded_carrier(
                _response(withdrawn), US_CHANNEL_PLAN, OccupancyProbe(), 20e6
            )
            is None
        )


def _scenario(seed=13, n_aps=6):
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


class TestHybridManager:
    def test_rejects_overlapping_providers(self):
        with pytest.raises(ValueError):
            HybridInterferenceManager(
                {"a": [0, 1], "b": [1, 2]}, 13, RngStreams(1)
            )

    def test_first_epoch_full_carrier(self):
        manager = HybridInterferenceManager({"a": [0], "b": [1]}, 13, RngStreams(1))
        decisions = manager.decide(0, None)
        assert decisions[0] == set(range(13))

    def test_members_of_one_provider_never_overlap(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        half = len(ap_ids) // 2
        providers = {"alpha": ap_ids[:half], "beta": ap_ids[half:]}
        manager = HybridInterferenceManager(providers, 13, RngStreams(2))
        demands = {c.client_id: float("inf") for c in topo.clients}
        results = net.run(6, manager, lambda e: demands)
        holdings = manager.holdings()
        for members in providers.values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert not (holdings.get(a, set()) & holdings.get(b, set()))

    def test_split_respects_provider_holdings(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        providers = {"solo": ap_ids}
        manager = HybridInterferenceManager(providers, 13, RngStreams(3))
        demands = {c.client_id: float("inf") for c in topo.clients}
        net.run(5, manager, lambda e: demands)
        provider_set = manager.provider_holdings()["solo"]
        union = set()
        for subs in manager.holdings().values():
            union |= subs
        assert union <= provider_set

    def test_hybrid_not_worse_than_distributed(self):
        topo, net_hybrid = _scenario(seed=17, n_aps=6)
        ap_ids = [a.ap_id for a in topo.aps]
        providers = {"alpha": ap_ids[:3], "beta": ap_ids[3:]}
        demands = {c.client_id: float("inf") for c in topo.clients}

        hybrid = HybridInterferenceManager(providers, 13, RngStreams(4))
        hybrid_results = net_hybrid.run(10, hybrid, lambda e: demands)

        _, net_cellfi = _scenario(seed=17, n_aps=6)
        cellfi = CellFiInterferenceManager(ap_ids, 13, RngStreams(4))
        cellfi_results = net_cellfi.run(10, cellfi, lambda e: demands)

        def connected(results):
            return np.mean(
                [list(r.connected.values()) for r in results[5:]]
            )

        assert connected(hybrid_results) >= connected(cellfi_results) - 0.08

    def test_empty_provider_tolerated(self):
        topo, net = _scenario()
        ap_ids = [a.ap_id for a in topo.aps]
        providers = {"alpha": ap_ids, "ghost": []}
        manager = HybridInterferenceManager(providers, 13, RngStreams(5))
        demands = {c.client_id: float("inf") for c in topo.clients}
        results = net.run(3, manager, lambda e: demands)
        assert results  # No crash; ghost provider simply holds nothing.
