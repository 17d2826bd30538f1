"""One loss block per deployment: adoption, copy-on-write, bulk link rows.

``CompositeChannel.loss_matrix`` builds a deployment's loss block once
(for strongest-cell association) and remembers it.  A batched
``GainMatrixCache`` with no antennas on the same exact coordinates adopts
that block instead of recomputing it, and copies it before its first
row write.  These tests pin that the shared block never changes what any
simulator computes: every comparison is exact, against the scalar fill
oracle and the scalar epoch backend.

The second half pins the bulk link-table rows (``_refresh_links``): the
array expressions must equal the per-link scalar loop a ``"scalar"``
gain cache keeps, culled and unculled, with dead foreign rows in shard
views.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import build_scenario
from repro.lte.network import (
    BACKEND_INCREMENTAL,
    BACKEND_SCALAR,
    PRACH_DETECTION_SNR_DB,
    PRACH_TARGET_RX_DBM,
    AllSubchannelsPolicy,
    LteNetworkSimulator,
)
from repro.phy import vecmath
from repro.phy.antenna import SectorAntenna
from repro.phy.propagation import (
    FILL_BATCHED,
    FILL_SCALAR,
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import AccessPointSite, ClientSite, Topology
from repro.utils.dbmath import dbm_to_watt

SEED = 29
N_APS = 10


def copy_topology(topology):
    """Same sites, separate mutable lists (one simulator moves clients)."""
    return Topology(
        area_m=topology.area_m,
        aps=list(topology.aps),
        clients=list(topology.clients),
    )


def simulator(scenario, topology=None, **kwargs):
    return LteNetworkSimulator(
        topology=topology or scenario.topology,
        grid=scenario.grid(),
        channel=scenario.channel,
        rngs=RngStreams(SEED).fork("net"),
        **kwargs,
    )


def scalar_cache(channel, topology):
    return GainMatrixCache(
        channel, topology.aps, topology.clients, fill_mode=FILL_SCALAR
    )


def epoch_digests(net, n_epochs=3):
    """repr-exact digest of every client-visible output, per epoch."""
    policy = AllSubchannelsPolicy(
        [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
    )
    demands = {c.client_id: float("inf") for c in net.topology.clients}
    digests = []
    for result in net.run(n_epochs, policy, lambda e: dict(demands)):
        payload = (
            sorted(result.served_bits.items()),
            sorted(result.throughput_bps.items()),
            sorted(result.connected.items()),
            [
                (
                    ap_id,
                    obs.n_active_clients,
                    obs.estimated_contenders,
                    sorted(
                        (cid, c.subband_cqi, c.max_subband_cqi,
                         c.interference_detected, c.scheduled_fraction)
                        for cid, c in obs.clients.items()
                    ),
                )
                for ap_id, obs in sorted(result.observations.items())
            ],
        )
        digests.append(hashlib.sha256(repr(payload).encode()).hexdigest())
    return digests


@pytest.fixture
def scenario():
    return build_scenario(SEED, N_APS)


def remembered(scenario):
    topology = scenario.topology
    return scenario.channel.remembered_loss_matrix(topology.aps, topology.clients)


class TestAdoption:
    def test_simulators_adopt_the_association_block(self, scenario):
        block = remembered(scenario)
        assert block is not None
        nets = [simulator(scenario), simulator(scenario)]
        for net in nets:
            cache = net.gain_cache
            assert np.shares_memory(cache._loss, block)
            assert cache._row_valid.all()

    def test_two_simulators_then_one_moves(self, scenario):
        block = remembered(scenario)
        reference = block.copy()
        still = simulator(scenario)
        mover = simulator(scenario, topology=copy_topology(scenario.topology))
        moved = mover.topology.clients[5]
        mover.move_client(moved.client_id, moved.x + 37.5, moved.y - 12.25)
        # The mover copied before writing; the block and the other
        # simulator are untouched.
        assert not np.shares_memory(mover.gain_cache._loss, block)
        assert np.shares_memory(still.gain_cache._loss, block)
        oracle = scalar_cache(scenario.channel, scenario.topology).matrix()
        assert np.array_equal(block, reference)
        assert np.array_equal(still.gain_cache.matrix(), block)
        assert np.array_equal(oracle, block)
        # The mover's own rows equal a scalar fill at the new position.
        moved_oracle = scalar_cache(scenario.channel, mover.topology).matrix()
        assert np.array_equal(mover.gain_cache.matrix(), moved_oracle)
        row = mover.gain_cache.client_index[moved.client_id]
        others = np.arange(len(block)) != row
        assert np.array_equal(mover.gain_cache.matrix()[others], block[others])
        assert not np.array_equal(mover.gain_cache.matrix()[row], block[row])

    def test_reads_and_empty_fills_leave_the_block_shared(self, scenario):
        block = remembered(scenario)
        cache = simulator(scenario).gain_cache
        ids = [c.client_id for c in scenario.topology.clients]
        ap_id = scenario.topology.aps[0].ap_id
        cache.rows(ids[:7])
        cache.rows([])
        cache.loss_db(ids[3], ap_id)
        cache.is_culled(ids[3], ap_id)
        cache.prefill()
        cache.prefill(ids[:4])
        cache.matrix()
        assert np.shares_memory(cache._loss, block)
        assert cache._shared

    def test_invalidate_then_refill_copies_once(self, scenario):
        block = remembered(scenario)
        cache = simulator(scenario).gain_cache
        cid = scenario.topology.clients[2].client_id
        cache.invalidate_client(cid)
        assert np.shares_memory(cache._loss, block)
        cache.rows([cid])
        assert not np.shares_memory(cache._loss, block)
        assert cache._loss.flags.writeable
        assert np.array_equal(cache.matrix(), block)

    def test_scalar_caches_never_adopt(self, scenario):
        net = simulator(scenario, gain_fill=FILL_SCALAR)
        assert not np.shares_memory(net.gain_cache._loss, remembered(scenario))
        cache = scalar_cache(scenario.channel, scenario.topology)
        assert not cache._row_valid.any()

    def test_antenna_caches_never_adopt(self, scenario):
        topology = scenario.topology
        antennas = {ap.ap_id: SectorAntenna() for ap in topology.aps}
        cache = GainMatrixCache(
            scenario.channel, topology.aps, topology.clients,
            ap_antennas=antennas,
        )
        assert not cache._row_valid.any()
        assert not np.shares_memory(cache._loss, remembered(scenario))

    @pytest.mark.parametrize("side", ["ap", "client"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_one_ulp_off_never_adopts(self, scenario, side, axis):
        topology = scenario.topology
        aps, clients = list(topology.aps), list(topology.clients)
        sites = aps if side == "ap" else clients
        site = sites[3]
        value = float(np.nextafter(getattr(site, axis), np.inf))
        sites[3] = dataclasses.replace(site, **{axis: value})
        cache = GainMatrixCache(scenario.channel, aps, clients)
        assert not cache._row_valid.any()
        assert np.array_equal(cache.matrix(), scalar_cache(
            scenario.channel, Topology(topology.area_m, aps, clients)
        ).matrix())

    def test_adopting_epochs_equal_the_scalar_backend(self, scenario):
        adopting = simulator(scenario)
        assert np.shares_memory(adopting.gain_cache._loss, remembered(scenario))
        oracle = simulator(
            scenario,
            topology=copy_topology(scenario.topology),
            backend=BACKEND_SCALAR,
            gain_fill=FILL_SCALAR,
        )
        assert epoch_digests(adopting) == epoch_digests(oracle)

    def test_epochs_after_a_move_equal_the_scalar_backend(self, scenario):
        nets = [
            simulator(
                scenario,
                topology=copy_topology(scenario.topology),
                backend=backend,
                gain_fill=fill,
            )
            for backend, fill in (
                (BACKEND_INCREMENTAL, FILL_BATCHED),
                (BACKEND_SCALAR, FILL_SCALAR),
            )
        ]
        for net in nets:
            moved = net.topology.clients[8]
            net.move_client(moved.client_id, moved.x - 140.0, moved.y + 90.0)
        assert epoch_digests(nets[0]) == epoch_digests(nets[1])


# ---------------------------------------------------------------------------
# Bulk link-table rows


class TestDbmToWatt:
    def test_vector_equals_scalar(self):
        rng = np.random.default_rng(17)
        dbm = np.concatenate(
            [
                rng.uniform(-250.0, 60.0, 5000),
                np.array([-np.inf, -3000.0, -330.0, 0.0, -0.0, 30.0]),
            ]
        )
        got = vecmath.vec_dbm_to_watt(dbm)
        assert got.tolist() == [dbm_to_watt(v) for v in dbm.tolist()]

    def test_pow10_equals_scalar(self):
        x = np.random.default_rng(19).uniform(-300.0, 300.0, 3000)
        assert vecmath.vec_pow10(x).tolist() == [10.0 ** v for v in x.tolist()]


def toy_topology(n_aps, xs, ys):
    aps = [
        AccessPointSite(ap_id=j, x=400.0 * j + 150.0, y=300.0 * (j % 2) + 100.0)
        for j in range(n_aps)
    ]
    clients = [
        ClientSite(client_id=i, x=x, y=y, ap_id=i % n_aps)
        for i, (x, y) in enumerate(zip(xs, ys))
    ]
    return Topology(area_m=400.0 * n_aps, aps=aps, clients=clients)


def link_tables(topology, gain_fill, cull, shard=None):
    return LteNetworkSimulator(
        topology=copy_topology(topology),
        grid=ResourceGrid(5e6),
        channel=CompositeChannel(
            UrbanHataPathLoss(), LogNormalShadowing(sigma_db=7.0, seed=2017)
        ),
        rngs=RngStreams(2017),
        cull_loss_db=cull,
        gain_fill=gain_fill,
        shard_ap_ids=shard,
    )


def assert_same_tables(a, b):
    for name in ("_rx_dbm_mat", "_rx_w_mat", "_prach_mat"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


coords = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=2400.0),
        st.floats(min_value=0.0, max_value=800.0),
    ),
    min_size=1,
    max_size=24,
)


class TestLinkRowsBatchIdentity:
    @given(points=coords, cull=st.sampled_from([None, 118.0, 127.5, 140.0]))
    @settings(max_examples=40, deadline=None)
    def test_batched_rows_equal_the_scalar_loop(self, points, cull):
        topology = toy_topology(6, *zip(*points))
        batched = link_tables(topology, FILL_BATCHED, cull)
        scalar = link_tables(topology, FILL_SCALAR, cull)
        assert_same_tables(batched, scalar)

    @pytest.mark.parametrize("cull", [None, 125.0])
    def test_culled_and_live_links_both_present(self, cull):
        rng = np.random.default_rng(3)
        topology = toy_topology(
            6, rng.uniform(0.0, 2400.0, 60), rng.uniform(0.0, 800.0, 60)
        )
        batched = link_tables(topology, FILL_BATCHED, cull)
        scalar = link_tables(topology, FILL_SCALAR, cull)
        assert_same_tables(batched, scalar)
        dead = batched._rx_w_mat == 0.0
        if cull is None:
            assert not dead.any()
        else:
            assert dead.any() and (~dead).any()
            assert np.isneginf(batched._rx_dbm_mat[dead]).all()
            assert not batched._prach_mat[dead].any()
        assert batched._prach_mat.any() and (~batched._prach_mat).any()

    @pytest.mark.parametrize("cull", [None, 125.0])
    def test_shard_views_keep_foreign_rows_dead(self, cull):
        rng = np.random.default_rng(4)
        topology = toy_topology(
            6, rng.uniform(0.0, 2400.0, 48), rng.uniform(0.0, 800.0, 48)
        )
        shard = [0, 1, 2]
        batched = link_tables(topology, FILL_BATCHED, cull, shard=shard)
        scalar = link_tables(topology, FILL_SCALAR, cull, shard=shard)
        assert_same_tables(batched, scalar)
        foreign = [
            batched._client_row[c.client_id]
            for c in topology.clients
            if c.ap_id not in shard
        ]
        assert foreign
        assert np.isneginf(batched._rx_dbm_mat[foreign]).all()
        assert not batched._rx_w_mat[foreign].any()
        assert not batched._prach_mat[foreign].any()

    def test_prach_threshold_is_inclusive(self):
        # A link whose PRACH SNR lands exactly on the detection threshold
        # is audible (``>=``) in both fills; one ulp more loss is not.
        topology = toy_topology(3, [100.0, 900.0], [150.0, 420.0])
        nets = [
            link_tables(topology, fill, None)
            for fill in (FILL_BATCHED, FILL_SCALAR)
        ]
        net = nets[0]
        client = net.topology.clients[0]
        serving = net._ap_col[client.ap_id]
        other = (serving + 1) % 3
        prach_tx = min(net.ue_tx_power_dbm, PRACH_TARGET_RX_DBM + 100.0)
        loss = (prach_tx - PRACH_DETECTION_SNR_DB) - net._prach_noise_dbm
        while (prach_tx - loss) - net._prach_noise_dbm > PRACH_DETECTION_SNR_DB:
            loss = float(np.nextafter(loss, np.inf))
        while (prach_tx - loss) - net._prach_noise_dbm < PRACH_DETECTION_SNR_DB:
            loss = float(np.nextafter(loss, -np.inf))
        assert (prach_tx - loss) - net._prach_noise_dbm == PRACH_DETECTION_SNR_DB
        row = net._client_row[client.client_id]
        louder = float(np.nextafter(loss, np.inf))
        for link_loss, audible in ((loss, True), (louder, False)):
            for each in nets:
                each.gain_cache._loss[row, serving] = 100.0
                each.gain_cache._loss[row, other] = link_loss
                each._refresh_links([client])
                assert bool(each._prach_mat[row, other]) is audible
            assert_same_tables(*nets)

    def test_cull_horizon_is_exclusive(self):
        # Loss equal to the horizon stays live; one ulp more is culled.
        horizon = 125.0
        topology = toy_topology(3, [100.0, 900.0], [150.0, 420.0])
        nets = [
            link_tables(topology, fill, horizon)
            for fill in (FILL_BATCHED, FILL_SCALAR)
        ]
        client = nets[0].topology.clients[1]
        row = nets[0]._client_row[client.client_id]
        col = (nets[0]._ap_col[client.ap_id] + 1) % 3
        beyond = float(np.nextafter(horizon, np.inf))
        for link_loss, live in ((horizon, True), (beyond, False)):
            for net in nets:
                net.gain_cache._loss[row, col] = link_loss
                net._refresh_links([client])
                assert bool(net._rx_w_mat[row, col] > 0.0) is live
            assert_same_tables(*nets)

    @pytest.mark.parametrize("cull", [None, 125.0])
    def test_moved_and_reattached_rows_equal_the_scalar_loop(self, cull):
        rng = np.random.default_rng(5)
        topology = toy_topology(
            6, rng.uniform(0.0, 2400.0, 30), rng.uniform(0.0, 800.0, 30)
        )
        nets = [
            link_tables(topology, fill, cull)
            for fill in (FILL_BATCHED, FILL_SCALAR)
        ]
        for net in nets:
            net.move_client(4, 1210.5, 333.25)
            net.reattach_client(9, 5)
        assert_same_tables(*nets)
        assert math.isfinite(nets[0]._rx_dbm_mat[4].max())
