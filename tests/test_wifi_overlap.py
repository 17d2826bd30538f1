"""The Wi-Fi SINR test over each frame's overlap set equals a full-history scan.

``WifiMedium.sinr_db`` sums interference over the frames that
``transmit`` recorded as overlapping the evaluated frame.  The oracle kept
here is the original definition: a scan of the whole air-time record
``medium._history`` with the same filters.  Both must agree bit for bit,
on every frame, in worlds that mix mutual and hidden carrier sense, with
RTS/CTS on and off, and end to end across ``prune_history`` ticks.
"""

import numpy as np
import pytest

from repro.experiments.common import build_scenario
from repro.sim.engine import Simulator
from repro.utils.dbmath import dbm_to_watt, linear_to_db
from repro.wifi.csma import CsmaNode, DcfParams, Station, WifiMedium
from repro.wifi.frames import FrameTimings
from repro.wifi.network import STANDARD_80211AF, WifiNetworkSimulator
from repro.wifi.rates import WIFI_MCS_TABLE

CLIENT_OFFSET = 100


def oracle_sinr_db(medium, tx):
    """SINR of ``tx`` from a scan of the whole air-time history."""
    if tx.dst is None:
        raise ValueError("transmission has no destination to evaluate")
    signal_w = dbm_to_watt(medium.rx_dbm(tx.src, tx.dst))
    noise_w = dbm_to_watt(medium.noise_dbm)
    interference_w = 0.0
    for other in medium._history:
        if other is tx or other.src == tx.src:
            continue
        if other.src == tx.dst:
            continue
        fraction = tx.overlap_fraction(other)
        if fraction <= 0.0:
            continue
        interference_w += fraction * dbm_to_watt(medium.rx_dbm(other.src, tx.dst))
    return linear_to_db(signal_w / (noise_w + interference_w))


def _mixed_world(seed, n_aps, rts_cts):
    """APs that hear some peers and not others, each with two clients.

    Every AP pair draws a loss either well inside or well outside carrier
    sense range (the CS threshold on 20 MHz is ~95 dB of loss at 20 dBm),
    so the world mixes mutual sensing with hidden terminals.  Cross-cell
    AP-to-client losses straddle the threshold too.
    """
    rng = np.random.default_rng(seed)
    sim = Simulator()
    params = DcfParams(timings=FrameTimings(bandwidth_hz=20e6), rts_cts=rts_cts)
    losses = {}

    def loss(a, b):
        key = frozenset((a.station_id, b.station_id))
        if key not in losses:
            ap_a = a.station_id % CLIENT_OFFSET
            ap_b = b.station_id % CLIENT_OFFSET
            if ap_a == ap_b:
                losses[key] = float(rng.uniform(62.0, 78.0))
            elif a.station_id < CLIENT_OFFSET and b.station_id < CLIENT_OFFSET:
                hidden = rng.random() < 0.5
                losses[key] = float(
                    rng.uniform(100.0, 125.0) if hidden else rng.uniform(60.0, 90.0)
                )
            else:
                losses[key] = float(rng.uniform(75.0, 115.0))
        return losses[key]

    medium = WifiMedium(sim, loss, 20e6, params)
    for i in range(n_aps):
        medium.add_station(Station(i, float(i), 0.0, 20.0))
        for k in (1, 2):
            medium.add_station(
                Station(k * CLIENT_OFFSET + i, float(i), float(k), 20.0)
            )
    for i in range(n_aps):
        node = CsmaNode(
            sim, medium, medium.station(i), params,
            np.random.default_rng(seed * 31 + i),
        )
        for k in (1, 2):
            client = k * CLIENT_OFFSET + i
            node.add_destination(client, WIFI_MCS_TABLE[int(rng.integers(0, 6))])
            node.enqueue(client, 1e9)
    return sim, medium


WORLDS = [
    (seed, n_aps, rts_cts)
    for seed, n_aps in enumerate((3, 4, 5, 6, 7, 8))
    for rts_cts in (True, False)
]


@pytest.mark.parametrize(
    "seed,n_aps,rts_cts",
    WORLDS,
    ids=[f"seed{s}-aps{n}-{'rts' if r else 'basic'}" for s, n, r in WORLDS],
)
class TestOverlapSetMatchesHistoryScan:
    def test_every_frame_bitwise(self, seed, n_aps, rts_cts):
        sim, medium = _mixed_world(seed, n_aps, rts_cts)
        sim.run(until=0.15)
        frames = [tx for tx in medium._history if tx.dst is not None]
        assert len(frames) > 50
        collided = 0
        for tx in frames:
            got = medium.sinr_db(tx)
            want = oracle_sinr_db(medium, tx)
            assert got.hex() == want.hex(), (tx, got, want)
            collided += any(tx.overlap_fraction(o) > 0.0 for o in tx.overlaps)
        # The worlds must actually exercise overlapping frames.
        assert collided > 0

    def test_overlap_set_is_the_overlapping_history(self, seed, n_aps, rts_cts):
        sim, medium = _mixed_world(seed, n_aps, rts_cts)
        sim.run(until=0.05)
        history = medium._history
        for tx in history:
            overlapping = [
                o for o in history
                if o is not tx and tx.overlap_fraction(o) > 0.0
            ]
            recorded = [o for o in tx.overlaps if tx.overlap_fraction(o) > 0.0]
            assert len(recorded) == len(overlapping)
            assert all(a is b for a, b in zip(recorded, overlapping))
            assert all(o is not tx for o in tx.overlaps)


def _saturated_af_run(seed, n_aps, duration_s):
    scenario = build_scenario(seed, n_aps)
    net = WifiNetworkSimulator(
        topology=scenario.topology,
        channel=scenario.channel,
        standard=STANDARD_80211AF,
        rngs=scenario.rngs.fork("wifi"),
    )
    return net, net.run_saturated(duration_s)


class TestEndToEnd:
    def test_saturated_run_matches_history_scan(self, monkeypatch):
        # 1.2 s crosses the 0.5 s and 1.0 s prune_history ticks.
        _, production = _saturated_af_run(seed=5, n_aps=6, duration_s=1.2)
        monkeypatch.setattr(WifiMedium, "sinr_db", oracle_sinr_db)
        _, oracle = _saturated_af_run(seed=5, n_aps=6, duration_s=1.2)
        assert production.data_attempts > 0
        assert production.data_failures > 0
        assert production.data_attempts == oracle.data_attempts
        assert production.data_failures == oracle.data_failures
        assert production.throughput_bps == oracle.throughput_bps

    def test_pruned_frames_forget_their_overlap_sets(self):
        net, _ = _saturated_af_run(seed=5, n_aps=6, duration_s=0.6)
        kept = {id(tx) for tx in net.medium._history}
        reached = [
            other
            for tx in net.medium._history
            for other in tx.overlaps
            if id(other) not in kept
        ]
        assert reached, "expected frames that overlap the prune cutoff"
        assert all(other.overlaps == [] for other in reached)
