"""Incremental epoch backend: bit-identity, dirty tracking and culling.

The incremental backend is only allowed to exist because it is *exactly*
the scalar reference implementation, faster: same RNG draw order, same
floating-point operation order where it matters, same quantisation.  It
reuses cached per-AP blocks across epochs and skips interference from
culled neighbours, so these tests compare complete epoch outputs with
``==`` (no tolerances) on a seeded 20-cell topology, under full-carrier
and partial grants, mobility, handover and hopping churn -- including
zero-activity epochs, where the cache does all the work.

Also pinned here: backend selection, the link table (dense matrices read
through ``rx_rb_power_dbm`` / ``prach_audible`` / ``sinr_db``) and its
gain-cache invalidation on mobility, the ``_rows_of_ap`` handover
staleness fix, the read-only gain-matrix accessors, the zero-signal CQI
clamp, and the PF scheduler fast path.  A 48-cell CellFi scenario runs
the batched block rebuild and the batched PF pass (its scheduler batches
exceed ``BATCH_MIN_PAIRS_PER_STEP``) against the scalar oracle, and the
cached state must not grow with the epoch count.
"""

import math

import numpy as np
import pytest

from repro.core.interference.manager import CellFiInterferenceManager
from repro.lte import scheduler as scheduler_module
from repro.lte.network import (
    BACKEND_INCREMENTAL,
    BACKEND_SCALAR,
    ZERO_SIGNAL_SINR_DB,
    AllSubchannelsPolicy,
    LteNetworkSimulator,
    _elementwise_db,
)
from repro.lte.scheduler import (
    BATCH_MIN_PAIRS_PER_STEP,
    MINISLOTS_PER_EPOCH,
    ProportionalFairScheduler,
    Scheduler,
)
from repro.obs.runtime import activated
from repro.obs.telemetry import Telemetry
from repro.phy.mcs import CQI_OUT_OF_RANGE, cqi_from_sinr
from repro.phy.propagation import (
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.rng import RngStreams
from repro.sim.topology import random_topology, reassociate_strongest

N_CELLS = 20
CLIENTS_PER_AP = 4
SEED = 42
CULL_DB = 135.0

#: A scenario whose scheduler batches exceed ``BATCH_MIN_PAIRS_PER_STEP``,
#: so the batched PF pass (not the per-AP loop) runs.
BIG_CELLS = 48
BIG_CLIENTS_PER_AP = 12


def make_channel():
    return CompositeChannel(
        UrbanHataPathLoss(), LogNormalShadowing(sigma_db=7.0, seed=SEED)
    )


def make_topology(channel):
    rng = np.random.default_rng(SEED)
    topology = random_topology(
        rng,
        n_aps=N_CELLS,
        clients_per_ap=CLIENTS_PER_AP,
        area_m=2000.0,
        client_range_m=600.0,
    )
    return reassociate_strongest(
        topology, channel.loss_matrix(topology.aps, topology.clients)
    )


def make_net(backend, cull_loss_db=None):
    channel = make_channel()
    topology = make_topology(channel)
    return LteNetworkSimulator(
        topology=topology,
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
        backend=backend,
        cull_loss_db=cull_loss_db,
    )


def make_big_topology(channel):
    rng = np.random.default_rng(SEED)
    topology = random_topology(
        rng,
        n_aps=BIG_CELLS,
        clients_per_ap=BIG_CLIENTS_PER_AP,
        area_m=3000.0,
        client_range_m=600.0,
    )
    return reassociate_strongest(
        topology, channel.loss_matrix(topology.aps, topology.clients)
    )


def make_big_net(backend, cull_loss_db=None):
    channel = make_channel()
    return LteNetworkSimulator(
        topology=make_big_topology(channel),
        grid=ResourceGrid(5e6),
        channel=channel,
        rngs=RngStreams(SEED),
        backend=backend,
        cull_loss_db=cull_loss_db,
    )


class RotatingSubsetPolicy:
    """Partial, shifting subchannel sets: hopping-style churn."""

    def __init__(self, ap_ids, n_subchannels):
        self.ap_ids = list(ap_ids)
        self.n_subchannels = n_subchannels

    def decide(self, epoch_index, observations):
        return {
            ap: {
                (ap + epoch_index + k) % self.n_subchannels
                for k in range(3 + ap % 4)
            }
            for ap in self.ap_ids
        }


def mixed_demand_fn(topology):
    def fn(epoch):
        demands = {}
        for client in topology.clients:
            cid = client.client_id
            if cid % 5 == 0:
                demands[cid] = 0.0
            elif cid % 3 == 0:
                demands[cid] = 2e6
            else:
                demands[cid] = float("inf")
        return demands

    return fn


def dead_links(net):
    """``(client_id, ap_id)`` pairs whose link carries exactly 0.0 W."""
    client_of = {row: cid for cid, row in net._client_row.items()}
    ap_of = {col: ap_id for ap_id, col in net._ap_col.items()}
    rows, cols = np.nonzero(net._rx_w_mat == 0.0)
    return [
        (client_of[r], ap_of[c]) for r, c in zip(rows.tolist(), cols.tolist())
    ]


def assert_epochs_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.epoch_index == b.epoch_index
        assert a.served_bits == b.served_bits
        assert a.throughput_bps == b.throughput_bps
        assert a.connected == b.connected
        assert a.allocations.keys() == b.allocations.keys()
        for ap_id in a.allocations:
            assert a.allocations[ap_id].served_bits == b.allocations[ap_id].served_bits
            assert (
                a.allocations[ap_id].time_fraction
                == b.allocations[ap_id].time_fraction
            )
        assert a.observations.keys() == b.observations.keys()
        for ap_id in a.observations:
            oa, ob = a.observations[ap_id], b.observations[ap_id]
            assert oa.n_active_clients == ob.n_active_clients
            assert oa.estimated_contenders == ob.estimated_contenders
            assert oa.clients.keys() == ob.clients.keys()
            for cid in oa.clients:
                ca, cb = oa.clients[cid], ob.clients[cid]
                assert ca.subband_cqi == cb.subband_cqi
                assert ca.max_subband_cqi == cb.max_subband_cqi
                assert ca.interference_detected == cb.interference_detected
                assert ca.scheduled_fraction == cb.scheduled_fraction


def churn_run(net, n_epochs):
    """Seeded mobility + handover + hopping churn with zero-activity epochs.

    Every stochastic choice comes from dedicated generators seeded
    identically per backend, so all backends replay the same event
    sequence in lockstep.
    """
    policy = RotatingSubsetPolicy(
        [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
    )
    churn_rng = np.random.default_rng(7)
    results = []
    for epoch in range(n_epochs):
        if epoch % 4 == 3:
            demands = {c.client_id: 0.0 for c in net.topology.clients}
        else:
            demands = {}
            for c in net.topology.clients:
                cid = c.client_id
                if cid % 5 == 0:
                    demands[cid] = 0.0
                elif cid % 3 == 0:
                    demands[cid] = 2e6
                else:
                    demands[cid] = float("inf")
        allowed = policy.decide(epoch, None)
        results.append(net.run_epoch(epoch, allowed, demands))
        # Mobility: jitter a couple of clients.
        for _ in range(2):
            mover = net.topology.clients[
                int(churn_rng.integers(len(net.topology.clients)))
            ]
            net.move_client(
                mover.client_id,
                float(churn_rng.uniform(0.0, net.topology.area_m)),
                float(churn_rng.uniform(0.0, net.topology.area_m)),
            )
        # Handover: re-attach one client to a random cell.
        roamer = net.topology.clients[
            int(churn_rng.integers(len(net.topology.clients)))
        ]
        net.reattach_client(roamer.client_id, int(churn_rng.integers(N_CELLS)))
    return results


def cellfi_churn_run(net, n_epochs):
    """CellFi hopping on the big scenario, with mobility and handover.

    Demands mix saturated, finite (exhausted part-way through an epoch)
    and idle clients.  Every third epoch grants the full carrier, so a
    shard view's scheduler batch exceeds ``BATCH_MIN_PAIRS_PER_STEP`` too.
    """
    ap_ids = [ap.ap_id for ap in net.topology.aps]
    n_subs = net.grid.n_subchannels
    manager = CellFiInterferenceManager(
        ap_ids, n_subs, RngStreams(SEED).fork("manager")
    )
    full_carrier = AllSubchannelsPolicy(ap_ids, n_subs)
    churn_rng = np.random.default_rng(11)
    demands = {}
    for client in net.topology.clients:
        cid = client.client_id
        if cid % 11 == 0:
            demands[cid] = 0.0
        elif cid % 5 == 0:
            demands[cid] = 1.5e5
        else:
            demands[cid] = float("inf")
    observations = None
    results = []
    for epoch in range(n_epochs):
        allowed = manager.decide(epoch, observations)
        if epoch % 3 == 2:
            allowed = full_carrier.decide(epoch, observations)
        result = net.run_epoch(epoch, allowed, demands)
        observations = result.observations
        results.append(result)
        for _ in range(3):
            mover = net.topology.clients[
                int(churn_rng.integers(len(net.topology.clients)))
            ]
            net.move_client(
                mover.client_id,
                float(churn_rng.uniform(0.0, net.topology.area_m)),
                float(churn_rng.uniform(0.0, net.topology.area_m)),
            )
        roamer = net.topology.clients[
            int(churn_rng.integers(len(net.topology.clients)))
        ]
        net.reattach_client(roamer.client_id, int(churn_rng.integers(BIG_CELLS)))
    return results


@pytest.fixture
def batch_spy(monkeypatch):
    """Records the pairs per array step of every batched PF pass."""
    calls = []
    batch = scheduler_module._allocate_batch

    def spy(schedulers, requests, pairs):
        calls.append(pairs / max(len(subs) for subs, _, _, _ in requests))
        return batch(schedulers, requests, pairs)

    monkeypatch.setattr(scheduler_module, "_allocate_batch", spy)
    return calls


def state_sizes(net):
    """Entry counts of every container and byte sizes of every array the
    simulator holds."""
    sizes = {}
    for name, value in vars(net).items():
        if isinstance(value, (dict, list, set)):
            sizes[name] = len(value)
        elif isinstance(value, np.ndarray):
            sizes[name] = value.nbytes
    return sizes


class TestBackendSelection:
    def test_default_backend_is_incremental(self):
        channel = make_channel()
        topology = make_topology(channel)
        net = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
        )
        assert net.backend == BACKEND_INCREMENTAL

    def test_unknown_backend_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        # "vectorized" named a dense backend that no longer exists.
        for backend in ("gpu", "vectorized"):
            with pytest.raises(ValueError):
                LteNetworkSimulator(
                    topology=topology,
                    grid=ResourceGrid(5e6),
                    channel=channel,
                    rngs=RngStreams(SEED),
                    backend=backend,
                )

    def test_incremental_backend_accepted(self):
        assert make_net(BACKEND_INCREMENTAL).backend == BACKEND_INCREMENTAL

    def test_cull_conflict_with_injected_cache_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(
            channel, topology.aps, topology.clients, cull_loss_db=140.0
        )
        with pytest.raises(ValueError):
            LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(SEED),
                gain_cache=cache,
                cull_loss_db=150.0,
            )


class TestBitForBitEquivalence:
    def test_saturated_full_carrier(self):
        nets = {b: make_net(b) for b in (BACKEND_SCALAR, BACKEND_INCREMENTAL)}
        results = {}
        for backend, net in nets.items():
            policy = AllSubchannelsPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demands = {c.client_id: float("inf") for c in net.topology.clients}
            results[backend] = net.run(2, policy, lambda e: dict(demands))
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

    def test_partial_subsets_and_mixed_demand(self):
        nets = {b: make_net(b) for b in (BACKEND_SCALAR, BACKEND_INCREMENTAL)}
        results = {}
        for backend, net in nets.items():
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            results[backend] = net.run(
                3, policy, mixed_demand_fn(net.topology)
            )
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

    def test_equivalence_survives_mobility(self):
        nets = {b: make_net(b) for b in (BACKEND_SCALAR, BACKEND_INCREMENTAL)}
        policies = {
            b: RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            for b, net in nets.items()
        }
        moved = nets[BACKEND_SCALAR].topology.clients[3].client_id
        results = {b: [] for b in nets}
        for backend, net in nets.items():
            demand_fn = mixed_demand_fn(net.topology)
            allowed = policies[backend].decide(0, None)
            results[backend].append(net.run_epoch(0, allowed, demand_fn(0)))
            net.move_client(moved, 310.0, 1250.0)
            allowed = policies[backend].decide(
                1, results[backend][-1].observations
            )
            results[backend].append(net.run_epoch(1, allowed, demand_fn(1)))
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

    def test_patched_rows_match_a_full_rebuild(self):
        # A fixed grant keeps every block signature, so only the moved
        # clients' rows are recomputed into the cached blocks.  The epochs
        # must match the scalar oracle and the patched blocks must equal
        # blocks rebuilt from scratch at the final positions.
        nets = {b: make_net(b) for b in (BACKEND_SCALAR, BACKEND_INCREMENTAL)}
        topology = nets[BACKEND_SCALAR].topology
        ap_ids = [ap.ap_id for ap in topology.aps]
        policy = AllSubchannelsPolicy(ap_ids, nets[BACKEND_SCALAR].grid.n_subchannels)
        demand_fn = mixed_demand_fn(topology)
        movers = [topology.clients[k].client_id for k in (0, 1, 7)]
        results = {b: [] for b in nets}
        for epoch in range(4):
            for backend, net in nets.items():
                for k, cid in enumerate(movers if epoch else []):
                    net.move_client(
                        cid, 200.0 + 150.0 * k + 40.0 * epoch, 900.0 - 60.0 * epoch
                    )
                results[backend].append(
                    net.run_epoch(epoch, policy.decide(epoch, None), demand_fn(epoch))
                )
            if epoch:
                stats = nets[BACKEND_INCREMENTAL].last_epoch_stats
                assert stats["dirty_rows"] == len(movers)
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

        patched = nets[BACKEND_INCREMENTAL]
        fresh = make_net(BACKEND_INCREMENTAL)
        for cid in movers:
            client = patched.topology.client(cid)
            fresh.move_client(cid, client.x, client.y)
        fresh.run_epoch(0, policy.decide(0, None), demand_fn(0))
        for ap_id in ap_ids:
            want = fresh._ap_blocks[ap_id][1]
            have = patched._ap_blocks[ap_id][1]
            assert want.keys() == have.keys()
            for name in want:
                assert repr(have[name]) == repr(want[name]), (ap_id, name)


class TestBitForBitFuzz:
    """Scalar vs incremental in lockstep over seeded churn."""

    def test_backends_identical_under_churn(self):
        results = {
            backend: churn_run(make_net(backend), 8)
            for backend in (BACKEND_SCALAR, BACKEND_INCREMENTAL)
        }
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

    def test_culled_incremental_matches_culled_scalar_oracle(self):
        # Culling changes the physics (dead links carry nothing), so the
        # oracle is the *scalar backend with the same horizon*.
        results = {
            backend: churn_run(make_net(backend, cull_loss_db=CULL_DB), 8)
            for backend in (BACKEND_SCALAR, BACKEND_INCREMENTAL)
        }
        assert_epochs_identical(
            results[BACKEND_SCALAR], results[BACKEND_INCREMENTAL]
        )

    def test_culling_horizon_actually_culls(self):
        net = make_net(BACKEND_INCREMENTAL, cull_loss_db=CULL_DB)
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        net.run_epoch(0, policy.decide(0, None), demands)
        assert net.last_epoch_stats["culled_columns"] > 0
        dead = dead_links(net)
        assert dead
        for cid, ap_id in dead:
            assert net.rx_rb_power_dbm(cid, ap_id) == float("-inf")
            assert not net.prach_audible(cid, ap_id)


class TestBatchedKernels:
    """The batched block rebuild and PF pass against the scalar oracle,
    at a size where scheduler batches exceed ``BATCH_MIN_PAIRS_PER_STEP``."""

    def test_cellfi_churn_matches_scalar_oracle(self, batch_spy):
        scalar = cellfi_churn_run(make_big_net(BACKEND_SCALAR), 8)
        assert batch_spy == []  # the oracle calls per-AP ``allocate``
        incremental = cellfi_churn_run(make_big_net(BACKEND_INCREMENTAL), 8)
        assert len(batch_spy) >= 4
        assert min(batch_spy) >= BATCH_MIN_PAIRS_PER_STEP
        assert_epochs_identical(scalar, incremental)

    def test_pass_spans_and_scheduler_counters(self, batch_spy):
        counters = {}
        for backend in (BACKEND_SCALAR, BACKEND_INCREMENTAL):
            tel = Telemetry(trace=True)
            with activated(tel):
                cellfi_churn_run(make_big_net(backend), 3)
            names = [record.name for record in tel.tracer.records]
            for span in ("lte.epoch.links", "lte.epoch.schedule", "lte.epoch.observe"):
                assert names.count(span) == 3, (backend, span)
            counters[backend] = {
                name: value
                for name, value in tel.snapshot()["counters"].items()
                if name.startswith("scheduler.")
            }
        assert batch_spy  # the incremental run took the batched path
        assert counters[BACKEND_INCREMENTAL] == counters[BACKEND_SCALAR]

    def test_culled_cellfi_churn_matches_culled_scalar_oracle(self, batch_spy):
        scalar = cellfi_churn_run(make_big_net(BACKEND_SCALAR, CULL_DB), 6)
        incremental = cellfi_churn_run(make_big_net(BACKEND_INCREMENTAL, CULL_DB), 6)
        assert batch_spy
        assert_epochs_identical(scalar, incremental)


class TestBoundedState:
    def test_state_does_not_grow_with_epoch_count(self):
        # Fresh random grants every epoch: each brings new SINRs and new
        # grant tuples, which any per-value memo would keep accumulating.
        net = make_net(BACKEND_INCREMENTAL)
        ap_ids = [ap.ap_id for ap in net.topology.aps]
        n_subs = net.grid.n_subchannels
        demands = mixed_demand_fn(net.topology)(0)
        rng = np.random.default_rng(3)

        def run(epochs):
            for epoch in epochs:
                allowed = {
                    ap: set(
                        rng.choice(
                            n_subs, size=int(rng.integers(1, n_subs + 1)),
                            replace=False,
                        ).tolist()
                    )
                    for ap in ap_ids
                }
                net.run_epoch(epoch, allowed, demands)

        run(range(3))
        before = state_sizes(net)
        run(range(3, 23))
        assert state_sizes(net) == before
        # Smoothed averages exist per client ever scheduled, no more.
        averaged = sum(len(s._average_bps) for s in net.schedulers.values())
        assert averaged <= len(net.topology.clients)


class TestDirtyTracking:
    def _run_one(self, net, policy, epoch, demands):
        return net.run_epoch(epoch, policy.decide(epoch, None), demands)

    def test_quiescent_epochs_are_fully_clean(self):
        net = make_net(BACKEND_INCREMENTAL)
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        assert net.last_epoch_stats["dirty_aps"] == N_CELLS
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == 0
        assert net.last_epoch_stats["clean_aps"] == N_CELLS
        assert net.last_epoch_stats["dirty_rows"] == 0

    def test_mobility_dirties_exactly_the_serving_ap(self):
        net = make_net(BACKEND_INCREMENTAL)
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        moved = net.topology.clients[0]
        net.move_client(moved.client_id, 500.0, 500.0)
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == 1
        assert net.last_epoch_stats["clean_aps"] == N_CELLS - 1

    def test_reattach_dirties_both_cells(self):
        net = make_net(BACKEND_INCREMENTAL)
        policy = AllSubchannelsPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        roamer = net.topology.clients[0]
        target = next(
            ap.ap_id for ap in net.topology.aps if ap.ap_id != roamer.ap_id
        )
        net.reattach_client(roamer.client_id, target)
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == 2
        assert net.last_epoch_stats["clean_aps"] == N_CELLS - 2

    def test_hopping_decision_change_dirties_affected_cells(self):
        net = make_net(BACKEND_INCREMENTAL)
        policy = RotatingSubsetPolicy(
            [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
        )
        demands = {c.client_id: float("inf") for c in net.topology.clients}
        self._run_one(net, policy, 0, demands)
        # The rotating policy shifts every AP's subchannel set each epoch,
        # so every cached block's decision signature misses.
        self._run_one(net, policy, 1, demands)
        assert net.last_epoch_stats["dirty_aps"] == N_CELLS


class TestReattachRegression:
    """The ``_rows_of_ap`` handover-staleness bug (diverged before the fix)."""

    def test_reattach_matches_fresh_simulator(self):
        net = make_net(BACKEND_INCREMENTAL)
        roamer = net.topology.clients[0]
        target = next(
            ap.ap_id for ap in net.topology.aps if ap.ap_id != roamer.ap_id
        )
        net.reattach_client(roamer.client_id, target)

        channel = make_channel()
        topology = make_topology(channel)
        topology.reattach_client(roamer.client_id, target)
        fresh = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
        )
        for ap_id in net._rows_of_ap:
            assert np.array_equal(
                net._rows_of_ap[ap_id], fresh._rows_of_ap[ap_id]
            ), f"stale row mapping for AP {ap_id}"
        assert np.array_equal(net._rx_dbm_mat, fresh._rx_dbm_mat)
        assert np.array_equal(net._rx_w_mat, fresh._rx_w_mat)
        assert np.array_equal(net._prach_mat, fresh._prach_mat)

    def test_epochs_after_reattach_match_fresh_simulator(self):
        nets = {}
        for flavor in ("reattached", "fresh"):
            channel = make_channel()
            topology = make_topology(channel)
            roamer_id = topology.clients[0].client_id
            target = next(
                ap.ap_id
                for ap in topology.aps
                if ap.ap_id != topology.clients[0].ap_id
            )
            if flavor == "fresh":
                topology.reattach_client(roamer_id, target)
            net = LteNetworkSimulator(
                topology=topology,
                grid=ResourceGrid(5e6),
                channel=channel,
                rngs=RngStreams(SEED),
            )
            if flavor == "reattached":
                net.reattach_client(roamer_id, target)
            nets[flavor] = net
        demands = {
            c.client_id: float("inf")
            for c in nets["fresh"].topology.clients
        }
        results = {}
        for flavor, net in nets.items():
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            results[flavor] = net.run(2, policy, lambda e: dict(demands))
        assert_epochs_identical(results["reattached"], results["fresh"])

    def test_topology_reattach_preserves_canonical_order(self):
        channel = make_channel()
        topology = make_topology(channel)
        mover = topology.clients[0]
        target = next(
            ap.ap_id for ap in topology.aps if ap.ap_id != mover.ap_id
        )
        topology.reattach_client(mover.client_id, target)
        for ap in topology.aps:
            expected = [
                c for c in topology.clients if c.ap_id == ap.ap_id
            ]
            assert topology.clients_of(ap.ap_id) == expected


class TestZeroSignalClamp:
    """``log10(0)`` must clamp, not leak NaN into the highest CQI bin."""

    def test_elementwise_db_clamps_zero(self):
        out = _elementwise_db(np.array([[1.0, 0.0], [0.0, 100.0]]))
        assert out[0, 0] == 0.0
        assert out[0, 1] == ZERO_SIGNAL_SINR_DB
        assert out[1, 0] == ZERO_SIGNAL_SINR_DB
        assert out[1, 1] == 20.0
        assert np.isfinite(out).all()

    def test_clamped_sinr_maps_to_cqi_zero_both_quantisers(self):
        assert cqi_from_sinr(ZERO_SIGNAL_SINR_DB) == CQI_OUT_OF_RANGE
        table = np.array(
            [e.min_sinr_db for e in __import__("repro.phy.mcs", fromlist=["LTE_CQI_TABLE"]).LTE_CQI_TABLE]
        )
        assert (
            int(np.searchsorted(table, ZERO_SIGNAL_SINR_DB, side="right"))
            == CQI_OUT_OF_RANGE
        )

    def test_scalar_sinr_queries_clamp_on_dead_links(self):
        net = make_net(BACKEND_SCALAR, cull_loss_db=CULL_DB)
        cid, ap_id = dead_links(net)[0]
        assert net.sinr_db(cid, ap_id, ()) == ZERO_SIGNAL_SINR_DB
        assert net.clean_sinr_db(cid, ap_id) == ZERO_SIGNAL_SINR_DB
        assert (
            net._weighted_sinr_db(cid, ap_id, [ap_id], [0.5])
            == ZERO_SIGNAL_SINR_DB
        )


class TestGainCacheInvalidation:
    def test_cache_matches_direct_channel_queries(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        for client in topology.clients[:5]:
            for ap in topology.aps[:5]:
                assert cache.loss_db(client.client_id, ap.ap_id) == channel.loss_db(
                    ap, client
                )

    def test_move_client_refreshes_exactly_one_row(self):
        net = make_net(BACKEND_INCREMENTAL)
        moved = net.topology.clients[0].client_id
        kept = net.topology.clients[1].client_id
        before_moved = dict(
            (ap.ap_id, net.rx_rb_power_dbm(moved, ap.ap_id))
            for ap in net.topology.aps
        )
        before_kept = dict(
            (ap.ap_id, net.rx_rb_power_dbm(kept, ap.ap_id))
            for ap in net.topology.aps
        )
        net.move_client(moved, 1777.0, 60.0)
        after_moved = dict(
            (ap.ap_id, net.rx_rb_power_dbm(moved, ap.ap_id))
            for ap in net.topology.aps
        )
        assert after_moved != before_moved
        for ap in net.topology.aps:
            assert net.rx_rb_power_dbm(kept, ap.ap_id) == before_kept[ap.ap_id]

    def test_moved_links_match_fresh_simulator(self):
        net = make_net(BACKEND_INCREMENTAL)
        moved = net.topology.clients[0].client_id
        net.move_client(moved, 1777.0, 60.0)

        channel = make_channel()
        topology = make_topology(channel)
        topology.move_client(moved, 1777.0, 60.0)
        fresh = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
        )
        assert np.array_equal(net._rx_w_mat, fresh._rx_w_mat)
        assert np.array_equal(net._rx_dbm_mat, fresh._rx_dbm_mat)
        assert np.array_equal(net._prach_mat, fresh._prach_mat)

    def test_shared_cache_can_be_injected(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        net = LteNetworkSimulator(
            topology=topology,
            grid=ResourceGrid(5e6),
            channel=channel,
            rngs=RngStreams(SEED),
            gain_cache=cache,
        )
        assert net.gain_cache is cache


class TestLinkTableAccessors:
    """The radio queries read the dense link table as plain Python scalars."""

    def test_accessors_return_python_scalars_from_the_matrices(self):
        net = make_net(BACKEND_SCALAR)
        client = net.topology.clients[0]
        cid, serving = client.client_id, client.ap_id
        others = [ap.ap_id for ap in net.topology.aps if ap.ap_id != serving]
        row = net._client_row[cid]
        for ap in net.topology.aps:
            col = net._ap_col[ap.ap_id]
            dbm = net.rx_rb_power_dbm(cid, ap.ap_id)
            audible = net.prach_audible(cid, ap.ap_id)
            assert type(dbm) is float
            assert type(audible) is bool
            assert dbm == net._rx_dbm_mat[row, col]
            assert audible == net._prach_mat[row, col]
        assert type(net.sinr_db(cid, serving, others[:3])) is float
        assert type(net.clean_sinr_db(cid, serving)) is float
        assert (
            type(net._weighted_sinr_db(cid, serving, others[:2], [0.5, 1.0]))
            is float
        )
        assert type(net.control_interference_scale(cid, serving, others)) is float


class TestGainCacheAccessors:
    def test_matrix_is_read_only(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(channel, topology.aps, topology.clients)
        matrix = cache.matrix()
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_rows_subset_fills_lazily(self):
        topology = make_topology(make_channel())
        # A fresh channel: one that built the association block would
        # hand it to the cache, with every row already valid.
        cache = GainMatrixCache(make_channel(), topology.aps, topology.clients)
        wanted = [c.client_id for c in topology.clients[:3]]
        subset = cache.rows(wanted)
        assert subset.shape == (3, len(topology.aps))
        # Only the requested rows were materialised.
        filled = int(cache._row_valid.sum())
        assert filled == 3
        with pytest.raises(ValueError):
            subset[0, 0] = 0.0
        for i, cid in enumerate(wanted):
            for ap in topology.aps:
                assert subset[i, cache.ap_index[ap.ap_id]] == cache.loss_db(
                    cid, ap.ap_id
                )

    def test_rows_empty_subset_normalized(self):
        # Regression: fancy-indexing with an empty index list is
        # dtype-ambiguous on some NumPy versions (an empty asarray defaults
        # to float64 *indices*), which surfaced as a 0-row view with the
        # wrong dtype.  The empty subset must be an explicit float64
        # (0, n_aps) read-only array and must not materialise any rows.
        topology = make_topology(make_channel())
        # A fresh channel, so the cache starts with no valid row.
        cache = GainMatrixCache(make_channel(), topology.aps, topology.clients)
        subset = cache.rows([])
        assert subset.shape == (0, len(topology.aps))
        assert subset.dtype == np.float64
        assert not subset.flags.writeable
        assert int(cache._row_valid.sum()) == 0

    def test_is_culled_matches_horizon(self):
        channel = make_channel()
        topology = make_topology(channel)
        cache = GainMatrixCache(
            channel, topology.aps, topology.clients, cull_loss_db=CULL_DB
        )
        culled = live = 0
        for client in topology.clients[:8]:
            for ap in topology.aps:
                expected = cache.loss_db(client.client_id, ap.ap_id) > CULL_DB
                assert cache.is_culled(client.client_id, ap.ap_id) == expected
                culled += expected
                live += not expected
        assert live > 0

    def test_bad_horizon_rejected(self):
        channel = make_channel()
        topology = make_topology(channel)
        with pytest.raises(ValueError):
            GainMatrixCache(
                channel, topology.aps, topology.clients, cull_loss_db=-3.0
            )


class _ReferencePfScheduler(ProportionalFairScheduler):
    """The pre-fast-path PF scheduler: pick closure + generic slot engine.

    Kept verbatim as the reference for the bit-identity test of the
    inlined fast path.
    """

    def allocate(self, allowed_subchannels, demands_bits, rate_fn, epoch_s=1.0):
        for client in demands_bits:
            self._average_bps.setdefault(client, self.floor_bps)

        def pick(sub, remaining, served):
            best_client = -1
            best_metric = 0.0
            for client, demand in remaining.items():
                if demand <= 0.0:
                    continue
                rate = rate_fn(client, sub)
                if rate <= 0.0:
                    continue
                history_bits = self.smoothing * self._average_bps[client] * epoch_s
                denom = max(
                    served[client] + history_bits,
                    self.floor_bps * epoch_s / 100.0,
                )
                metric = rate / denom
                if metric > best_metric:
                    best_metric = metric
                    best_client = client
            return best_client

        allocation = self._slot_allocate(
            allowed_subchannels, demands_bits, rate_fn, epoch_s, pick
        )
        for client in demands_bits:
            realised = allocation.served_bits.get(client, 0.0) / epoch_s
            self._average_bps[client] = (
                (1.0 - self.smoothing) * self._average_bps[client]
                + self.smoothing * max(realised, self.floor_bps)
            )
        return allocation


class TestPfFastPathEquivalence:
    def test_fast_path_matches_reference_closure(self):
        rng = np.random.default_rng(11)
        rates = {
            (c, s): float(rng.uniform(0.0, 5e6)) if rng.random() > 0.1 else 0.0
            for c in range(9)
            for s in range(6)
        }

        def rate_fn(client, sub):
            return rates[(client, sub)]

        fast = ProportionalFairScheduler()
        reference = _ReferencePfScheduler()
        demand_cases = [
            {c: float("inf") for c in range(9)},
            {c: 3e5 * (c + 1) for c in range(9)},
            {0: 0.0, 1: float("inf"), 2: 1e4, 5: 2e6, 8: float("inf")},
            {},
        ]
        for epoch, demands in enumerate(demand_cases * 3):
            a = fast.allocate(list(range(6)), dict(demands), rate_fn)
            b = reference.allocate(list(range(6)), dict(demands), rate_fn)
            assert a.served_bits == b.served_bits, f"case {epoch}"
            assert a.time_fraction == b.time_fraction, f"case {epoch}"
            assert fast._average_bps == reference._average_bps, f"case {epoch}"


class TestCheckpointState:
    def test_positions_and_serving_roundtrip(self):
        net = make_net(BACKEND_INCREMENTAL)
        moved = net.topology.clients[0]
        net.move_client(moved.client_id, 123.0, 456.0)
        roamer = net.topology.clients[1]
        target = next(
            ap.ap_id for ap in net.topology.aps if ap.ap_id != roamer.ap_id
        )
        net.reattach_client(roamer.client_id, target)

        state = net.state_dict()
        restored = make_net(BACKEND_INCREMENTAL)
        restored.load_state(state)
        assert restored.topology.client(moved.client_id).x == 123.0
        assert restored.topology.client(moved.client_id).y == 456.0
        assert restored.topology.client(roamer.client_id).ap_id == target
        assert np.array_equal(restored._rx_dbm_mat, net._rx_dbm_mat)
        for ap_id in net._rows_of_ap:
            assert np.array_equal(
                restored._rows_of_ap[ap_id], net._rows_of_ap[ap_id]
            )
        # Volatile caches restart cold.
        assert restored._ap_blocks == {}
        assert restored._audible_cols == {}
        assert restored._sig_cache == {}

    def test_resumed_run_digest_matches_straight_through(self):
        def epoch_pass(net, start, n):
            policy = RotatingSubsetPolicy(
                [ap.ap_id for ap in net.topology.aps], net.grid.n_subchannels
            )
            demands = {
                c.client_id: float("inf") for c in net.topology.clients
            }
            out = []
            for epoch in range(start, start + n):
                out.append(
                    net.run_epoch(epoch, policy.decide(epoch, None), demands)
                )
                mover = net.topology.clients[epoch % len(net.topology.clients)]
                net.move_client(
                    mover.client_id, 100.0 + 37.0 * epoch, 900.0 - 11.0 * epoch
                )
            return out

        straight = make_net(BACKEND_INCREMENTAL)
        full = epoch_pass(straight, 0, 4)

        first = make_net(BACKEND_INCREMENTAL)
        head = epoch_pass(first, 0, 2)
        net_state = first.state_dict()
        rng_state = first.rngs.state_dict()

        resumed = make_net(BACKEND_INCREMENTAL)
        resumed.load_state(net_state)
        resumed.rngs.load_state(rng_state)
        tail = epoch_pass(resumed, 2, 2)
        assert_epochs_identical(full, head + tail)
