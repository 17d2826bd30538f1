"""Unit tests for the downlink schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lte import scheduler as scheduler_module
from repro.lte.scheduler import (
    BATCH_MIN_PAIRS_PER_STEP,
    Allocation,
    ProportionalFairScheduler,
    RoundRobinScheduler,
)
from repro.obs.runtime import activated
from repro.obs.telemetry import Telemetry


def _flat_rate(rate):
    return lambda client, sub: rate


class TestAllocation:
    def test_client_throughput(self):
        alloc = Allocation(epoch_s=2.0, served_bits={1: 4e6})
        assert alloc.client_throughput_bps(1) == 2e6
        assert alloc.client_throughput_bps(99) == 0.0

    def test_fraction_default_zero(self):
        assert Allocation(epoch_s=1.0).fraction(1, 2) == 0.0

    def test_clients_on(self):
        alloc = Allocation(epoch_s=1.0, time_fraction={(1, 0): 0.5, (2, 0): 0.5, (1, 1): 1.0})
        assert sorted(alloc.clients_on(0)) == [1, 2]
        assert alloc.clients_on(1) == [1]


class TestRoundRobin:
    def test_equal_rates_equal_bits(self):
        scheduler = RoundRobinScheduler()
        alloc = scheduler.allocate(
            [0, 1], {1: float("inf"), 2: float("inf")}, _flat_rate(1e6)
        )
        assert alloc.served_bits[1] == pytest.approx(alloc.served_bits[2], rel=0.05)

    def test_total_bits_bounded_by_capacity(self):
        scheduler = RoundRobinScheduler()
        alloc = scheduler.allocate(
            [0, 1, 2], {1: float("inf"), 2: float("inf")}, _flat_rate(1e6)
        )
        assert sum(alloc.served_bits.values()) <= 3e6 * 1.0 + 1e-6

    def test_finite_demand_not_exceeded(self):
        scheduler = RoundRobinScheduler()
        alloc = scheduler.allocate([0, 1], {1: 100.0}, _flat_rate(1e6))
        assert alloc.served_bits[1] == pytest.approx(100.0)

    def test_leftover_capacity_goes_to_backlogged(self):
        scheduler = RoundRobinScheduler()
        alloc = scheduler.allocate(
            [0], {1: 1000.0, 2: float("inf")}, _flat_rate(1e6)
        )
        assert alloc.served_bits[1] == pytest.approx(1000.0)
        # Mini-slot granularity: client 2 gets all remaining whole slots.
        assert alloc.served_bits[2] == pytest.approx(1e6 * 49 / 50, rel=0.01)

    def test_zero_rate_client_not_scheduled(self):
        scheduler = RoundRobinScheduler()

        def rate(client, sub):
            return 0.0 if client == 1 else 1e6

        alloc = scheduler.allocate([0], {1: float("inf"), 2: float("inf")}, rate)
        assert alloc.served_bits[1] == 0.0
        assert alloc.served_bits[2] > 0.0

    def test_time_fractions_sum_to_one_per_subchannel(self):
        scheduler = RoundRobinScheduler()
        alloc = scheduler.allocate(
            [0, 1], {1: float("inf"), 2: float("inf")}, _flat_rate(1e6)
        )
        for sub in (0, 1):
            total = sum(
                frac for (c, s), frac in alloc.time_fraction.items() if s == sub
            )
            assert total == pytest.approx(1.0)

    def test_no_clients_no_bits(self):
        alloc = RoundRobinScheduler().allocate([0, 1], {}, _flat_rate(1e6))
        assert alloc.served_bits == {}


class TestProportionalFair:
    def test_equal_conditions_equal_split(self):
        scheduler = ProportionalFairScheduler()
        alloc = scheduler.allocate(
            [0, 1, 2], {1: float("inf"), 2: float("inf")}, _flat_rate(1e6)
        )
        assert alloc.served_bits[1] == pytest.approx(alloc.served_bits[2], rel=0.1)

    def test_airtime_fairness_with_unequal_rates(self):
        # PF equalises airtime, so throughput is proportional to rate.
        scheduler = ProportionalFairScheduler()

        def rate(client, sub):
            return 2e6 if client == 1 else 5e5

        alloc = scheduler.allocate([0], {1: float("inf"), 2: float("inf")}, rate)
        ratio = alloc.served_bits[1] / alloc.served_bits[2]
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_prefers_subchannel_quality(self):
        # A client only schedulable on one subchannel still gets served.
        scheduler = ProportionalFairScheduler()

        def rate(client, sub):
            if client == 1:
                return 1e6 if sub == 0 else 0.0
            return 1e6

        alloc = scheduler.allocate([0, 1], {1: float("inf"), 2: float("inf")}, rate)
        assert alloc.served_bits[1] > 0.0
        assert alloc.fraction(1, 1) == 0.0

    def test_average_persists_across_epochs(self):
        scheduler = ProportionalFairScheduler(smoothing=0.5)
        # Epoch 1: client 1 alone, builds up a high average.
        scheduler.allocate([0], {1: float("inf")}, _flat_rate(1e6))
        # Epoch 2: newcomer 2 should get more than half the airtime.
        alloc = scheduler.allocate(
            [0], {1: float("inf"), 2: float("inf")}, _flat_rate(1e6)
        )
        assert alloc.served_bits[2] >= alloc.served_bits[1]

    def test_demand_respected(self):
        scheduler = ProportionalFairScheduler()
        alloc = scheduler.allocate([0], {1: 500.0, 2: float("inf")}, _flat_rate(1e6))
        assert alloc.served_bits[1] == pytest.approx(500.0)

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ValueError):
            ProportionalFairScheduler(smoothing=0.0)

    def test_empty_subchannels_yield_nothing(self):
        alloc = ProportionalFairScheduler().allocate([], {1: float("inf")}, _flat_rate(1e6))
        assert alloc.served_bits[1] == 0.0


N_SUBS = 6

#: Saturated, idle, tiny (exhausted within one mini-slot) and mid-size
#: (exhausted part-way through the epoch) demands.
_DEMANDS = st.one_of(
    st.just(float("inf")),
    st.just(0.0),
    st.floats(min_value=1.0, max_value=5e3),
    st.floats(min_value=5e3, max_value=3e5),
)
_RATES = st.one_of(st.just(0.0), st.floats(min_value=1e4, max_value=5e6))


def _rate_fn(rows, tabled):
    def rate_fn(client, sub):
        return rows[client][sub]

    if tabled:
        rate_fn.rate_rows = rows
    return rate_fn


@st.composite
def _epochs(draw):
    """Per-epoch request lists for a fixed set of APs.

    Each AP draws its clients from a fixed pool, so smoothed averages
    carry over between epochs; grants have unequal lengths (empty
    included), and half the rate functions expose a ``rate_rows`` table.
    """
    n_aps = draw(st.integers(min_value=1, max_value=6))
    n_epochs = draw(st.integers(min_value=1, max_value=3))
    epochs = []
    for _ in range(n_epochs):
        requests = []
        for a in range(n_aps):
            clients = draw(
                st.lists(
                    st.sampled_from(range(10 * a, 10 * a + 5)),
                    unique=True,
                    max_size=5,
                )
            )
            demands = {client: draw(_DEMANDS) for client in clients}
            subs = sorted(draw(st.sets(st.integers(0, N_SUBS - 1))))
            rows = {
                client: draw(st.lists(_RATES, min_size=N_SUBS, max_size=N_SUBS))
                for client in clients
            }
            requests.append(
                (subs, demands, _rate_fn(rows, draw(st.booleans())), 1.0)
            )
        epochs.append(requests)
    return draw(st.sampled_from([0.05, 0.5, 1.0])), epochs


def _saturated_requests(n_aps, n_clients, rng):
    requests = []
    for a in range(n_aps):
        demands = {
            10 * a + c: float(rng.choice([np.inf, 0.0, 2e4, 3e5]))
            for c in range(n_clients)
        }
        rows = {
            client: rng.uniform(1e5, 5e6, size=13).tolist() for client in demands
        }
        requests.append((list(range(13)), demands, _rate_fn(rows, True), 1.0))
    return requests


class TestAllocateMany:
    """The batched PF pass against per-AP ``allocate``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=_epochs())
    def test_batch_equals_per_ap_allocate(self, case):
        smoothing, epochs = case
        n_aps = len(epochs[0])
        per_ap = [ProportionalFairScheduler(smoothing) for _ in range(n_aps)]
        batched = [ProportionalFairScheduler(smoothing) for _ in range(n_aps)]
        saved = scheduler_module.BATCH_MIN_PAIRS_PER_STEP
        scheduler_module.BATCH_MIN_PAIRS_PER_STEP = 0  # always batch
        try:
            for requests in epochs:
                expected = [
                    scheduler.allocate(*request)
                    for scheduler, request in zip(per_ap, requests)
                ]
                got = ProportionalFairScheduler.allocate_many(batched, requests)
                for a, (want, have) in enumerate(zip(expected, got)):
                    assert repr(have.served_bits) == repr(want.served_bits), a
                    assert repr(have.time_fraction) == repr(want.time_fraction), a
                    assert repr(batched[a].state_dict()) == repr(
                        per_ap[a].state_dict()
                    ), a
        finally:
            scheduler_module.BATCH_MIN_PAIRS_PER_STEP = saved

    def test_duplicate_and_unsorted_grants(self):
        rows = {1: [1e6, 2e6, 3e6], 2: [3e6, 0.0, 1e6]}
        requests = [([2, 0, 2], {1: float("inf"), 2: 4e4}, _rate_fn(rows, True), 1.0)]
        want = ProportionalFairScheduler().allocate(*requests[0])
        saved = scheduler_module.BATCH_MIN_PAIRS_PER_STEP
        scheduler_module.BATCH_MIN_PAIRS_PER_STEP = 0
        try:
            (have,) = ProportionalFairScheduler.allocate_many(
                [ProportionalFairScheduler()], requests
            )
        finally:
            scheduler_module.BATCH_MIN_PAIRS_PER_STEP = saved
        assert repr(have.served_bits) == repr(want.served_bits)
        assert repr(have.time_fraction) == repr(want.time_fraction)

    def test_dispatch_on_pairs_per_step(self, monkeypatch):
        calls = []
        batch = scheduler_module._allocate_batch

        def spy(schedulers, requests, pairs):
            calls.append(pairs)
            return batch(schedulers, requests, pairs)

        monkeypatch.setattr(scheduler_module, "_allocate_batch", spy)
        rng = np.random.default_rng(5)

        def run(requests):
            ProportionalFairScheduler.allocate_many(
                [ProportionalFairScheduler() for _ in requests], requests
            )

        # Full grants: the pass takes 13 steps per mini-slot, and the batch
        # has as many pairs per step as clients.
        n_aps = BATCH_MIN_PAIRS_PER_STEP // 6 + 1
        run(_saturated_requests(n_aps - 2, 6, rng))
        assert calls == []
        full = _saturated_requests(n_aps, 6, rng)
        run(full)
        assert calls == [n_aps * 6 * 13]
        # Two-subchannel grants take 2 steps per mini-slot: far fewer
        # pairs still run as a batch.
        calls.clear()
        short = [
            (subs[:2], demands, rate_fn, epoch_s)
            for subs, demands, rate_fn, epoch_s in full
        ]
        run(short)
        assert calls == [n_aps * 6 * 2]
        # One full grant among them sets the depth back to 13.
        calls.clear()
        run(short[:-1] + full[-1:])
        assert calls == []

    def test_empty_batch(self):
        assert ProportionalFairScheduler.allocate_many([], []) == []

    def test_telemetry_counters_match_per_ap_path(self):
        n_aps = BATCH_MIN_PAIRS_PER_STEP // 6 + 1
        requests = _saturated_requests(n_aps, 6, np.random.default_rng(9))
        per_ap = Telemetry(trace=True)
        with activated(per_ap):
            for request in requests:
                ProportionalFairScheduler().allocate(*request)
        batched = Telemetry(trace=True)
        with activated(batched):
            ProportionalFairScheduler.allocate_many(
                [ProportionalFairScheduler() for _ in requests], requests
            )

        def scheduler_counters(tel):
            return {
                name: value
                for name, value in tel.snapshot()["counters"].items()
                if name.startswith("scheduler.")
            }

        assert scheduler_counters(batched) == scheduler_counters(per_ap)
        assert scheduler_counters(batched)["scheduler.allocations"] == n_aps
        spans = [r.name for r in batched.tracer.records if r.cat == "scheduler"]
        assert spans == ["scheduler.allocate_many"]
        per_ap_spans = [r.name for r in per_ap.tracer.records if r.cat == "scheduler"]
        assert per_ap_spans == ["scheduler.allocate"] * n_aps
