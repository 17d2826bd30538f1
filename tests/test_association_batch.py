"""Batched strongest-cell association vs the per-pair scalar oracle.

``reassociate_strongest`` picks each client's AP with ``argmin`` over one
loss matrix built by ``CompositeChannel.loss_matrix``.  The oracle below
is the loop it replaced, written out here: ``min`` over the APs keyed on
scalar ``channel.loss_db`` calls.  ``argmin`` and ``min`` both return the
*first* minimum, and the batched loss block equals the scalar losses bit
for bit, so the two must agree exactly -- including on exact ties, which
the grid layouts below create on purpose.
"""

import math

import numpy as np
import pytest

from repro.experiments.common import (
    AREA_M,
    CLIENT_RANGE_M,
    SHADOWING_SIGMA_DB,
    build_scenario,
)
from repro.phy.propagation import (
    CompositeChannel,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.sim.rng import RngStreams
from repro.sim.topology import (
    Topology,
    grid_topology,
    random_topology,
    reassociate_strongest,
)


def oracle_association(topology, channel):
    """AP id per client, by the per-pair scalar loop."""
    return [
        min(topology.aps, key=lambda ap: channel.loss_db(ap, c)).ap_id
        for c in topology.clients
    ]


def batched_association(topology, channel):
    matrix = channel.loss_matrix(topology.aps, topology.clients)
    return [c.ap_id for c in reassociate_strongest(topology, matrix).clients]


def first_min_ties(topology, channel):
    """Clients whose smallest loss is shared by at least two APs."""
    ties = 0
    for client in topology.clients:
        losses = [channel.loss_db(ap, client) for ap in topology.aps]
        ties += losses.count(min(losses)) > 1
    return ties


class TestBuildScenarioAssociation:
    # 200 APs use one client per AP to keep the scalar oracle's
    # 40k loss_db calls cheap.
    @pytest.mark.parametrize(
        "n_aps, clients_per_ap", [(6, 6), (14, 6), (50, 6), (200, 1)]
    )
    @pytest.mark.parametrize("seed", [1, 7])
    def test_matches_the_scalar_loop(self, seed, n_aps, clients_per_ap):
        scenario = build_scenario(seed, n_aps, clients_per_ap)
        # The layout build_scenario starts from, before association.
        spawned = random_topology(
            RngStreams(seed).stream("topology"),
            n_aps=n_aps,
            clients_per_ap=clients_per_ap,
            area_m=AREA_M,
            client_range_m=CLIENT_RANGE_M,
        )
        channel = CompositeChannel(
            UrbanHataPathLoss(), LogNormalShadowing(SHADOWING_SIGMA_DB, seed=seed)
        )
        got = [c.ap_id for c in scenario.topology.clients]
        assert got == oracle_association(spawned, channel)
        # Shadowing moves some clients off the AP that spawned them.
        if n_aps >= 14:
            assert got != [c.ap_id for c in spawned.clients]

    def test_scenario_channel_remembers_its_block(self):
        scenario = build_scenario(3, 6)
        topology = scenario.topology
        block = scenario.channel.remembered_loss_matrix(
            topology.aps, topology.clients
        )
        assert block is not None and not block.flags.writeable
        assert block.tolist() == [
            [scenario.channel.loss_db(ap, c) for ap in topology.aps]
            for c in topology.clients
        ]


class TestFig2OutdoorAssociation:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_scalar_loop(self, seed):
        # The Figure 2 TVWS outdoor arm (repro.experiments.wifi_macs).
        channel = CompositeChannel(
            UrbanHataPathLoss(), LogNormalShadowing(6.0, seed=seed)
        )
        topology = random_topology(
            RngStreams(seed).stream("topology"),
            n_aps=8,
            clients_per_ap=6,
            area_m=2000.0,
            client_range_m=800.0,
        )
        assert batched_association(topology, channel) == oracle_association(
            topology, channel
        )


class TestTieBreak:
    def test_grid_ties_go_to_the_first_ap(self):
        # Clients on a 100 m circle around APs 200 m apart: those at
        # angles 0 and pi/2 sit exactly halfway between two APs.  Without
        # shadowing the two losses are equal bit for bit.
        topology = grid_topology(3, 4, spacing_m=200.0, client_offset_m=100.0)
        channel = CompositeChannel(UrbanHataPathLoss())
        assert first_min_ties(topology, channel) >= 6
        assert batched_association(topology, channel) == oracle_association(
            topology, channel
        )

    def test_tie_break_follows_ap_list_order(self):
        grid = grid_topology(3, 4, spacing_m=200.0, client_offset_m=100.0)
        reversed_aps = Topology(
            area_m=grid.area_m, aps=grid.aps[::-1], clients=list(grid.clients)
        )
        channel = CompositeChannel(UrbanHataPathLoss())
        forward = batched_association(grid, channel)
        backward = batched_association(reversed_aps, channel)
        assert backward == oracle_association(reversed_aps, channel)
        assert forward != backward

    def test_shadowed_grid_matches_the_scalar_loop(self):
        topology = grid_topology(4, 5, spacing_m=250.0, client_offset_m=125.0)
        channel = CompositeChannel(
            UrbanHataPathLoss(), LogNormalShadowing(7.0, seed=11)
        )
        assert batched_association(topology, channel) == oracle_association(
            topology, channel
        )


class TestLossMatrix:
    def test_multi_chunk_block_equals_scalar_losses(self):
        # 60 APs x 300 clients = 18000 links > _CHUNK_LINKS: the block
        # fills in more than one chunk.
        topology = random_topology(
            np.random.default_rng(5), n_aps=60, clients_per_ap=5
        )
        channel = CompositeChannel(
            UrbanHataPathLoss(), LogNormalShadowing(7.0, seed=5)
        )
        block = channel.loss_matrix(topology.aps, topology.clients)
        assert block.shape == (300, 60)
        for i in (0, 137, 299):
            client = topology.clients[i]
            assert block[i].tolist() == [
                channel.loss_db(ap, client) for ap in topology.aps
            ]

    def test_one_block_per_channel(self):
        first = grid_topology(2, 2, spacing_m=300.0)
        second = grid_topology(3, 1, spacing_m=300.0)
        channel = CompositeChannel(UrbanHataPathLoss())
        channel.loss_matrix(first.aps, first.clients)
        channel.loss_matrix(second.aps, second.clients)
        assert channel.remembered_loss_matrix(first.aps, first.clients) is None
        assert (
            channel.remembered_loss_matrix(second.aps, second.clients)
            is not None
        )

    def test_signed_zero_is_a_different_key(self):
        # -0.0 and 0.0 format to different shadowing keys, so a block
        # built at one must not be handed out for the other.
        topology = grid_topology(1, 1, spacing_m=0.0, client_offset_m=0.0)
        assert math.copysign(1.0, topology.aps[0].x) == 1.0
        channel = CompositeChannel(UrbanHataPathLoss())
        channel.loss_matrix(topology.aps, topology.clients)
        moved = [type(c)(c.client_id, -0.0, c.y, c.ap_id) for c in topology.clients]
        assert channel.remembered_loss_matrix(topology.aps, moved) is None
