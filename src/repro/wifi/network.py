"""Wi-Fi network simulator: topology glue and workload drivers.

Builds an 802.11af or 802.11ac network on the *same* topology used by the
LTE/CellFi simulators so technology comparisons hold everything else equal
(paper Section 3.2: "In both cases we consider the same network of access
points and place the same number of clients within the corresponding range
of each access point").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.phy.propagation import CompositeChannel
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.topology import Topology
from repro.utils.dbmath import dbm_to_watt, linear_to_db, thermal_noise_dbm
from repro.wifi.csma import CsmaNode, DcfParams, Station, WifiMedium
from repro.wifi.frames import FrameTimings
from repro.wifi.rates import best_mcs

#: Station-id offset separating client ids from AP ids in the medium.
CLIENT_STATION_OFFSET = 10_000


@dataclass(frozen=True)
class WifiStandard:
    """A Wi-Fi flavour: bandwidth, powers and MAC switches.

    The paper's simulation settings: 802.11af on a 6 MHz TVWS channel at
    30 dBm (both directions), 802.11ac at 20 dBm on 20 MHz; RTS/CTS on.
    """

    name: str
    bandwidth_hz: float
    ap_tx_power_dbm: float
    client_tx_power_dbm: float
    rts_cts: bool = True
    #: Rate-adaptation margin: MCS is chosen ``mcs_margin_db`` below the
    #: clean SNR, as practical SINR-driven adaptation does, leaving headroom
    #: for residual interference.
    mcs_margin_db: float = 3.0


#: 802.11af outdoor configuration (Section 6.3.4 "RF" settings).
STANDARD_80211AF = WifiStandard(
    name="802.11af", bandwidth_hz=6e6, ap_tx_power_dbm=30.0, client_tx_power_dbm=30.0
)

#: 802.11ac home configuration.
STANDARD_80211AC = WifiStandard(
    name="802.11ac", bandwidth_hz=20e6, ap_tx_power_dbm=20.0, client_tx_power_dbm=20.0
)


@dataclass
class WifiRunResult:
    """Outcome of a Wi-Fi simulation run.

    Attributes:
        duration_s: simulated time.
        throughput_bps: delivered throughput per client id.
        reachable: whether each client had any usable MCS at all.
        data_attempts / data_failures: MAC-level delivery accounting.
    """

    duration_s: float
    throughput_bps: Dict[int, float] = field(default_factory=dict)
    reachable: Dict[int, bool] = field(default_factory=dict)
    data_attempts: int = 0
    data_failures: int = 0

    @property
    def failure_rate(self) -> float:
        """Fraction of data frames that failed their SINR check."""
        if self.data_attempts == 0:
            return 0.0
        return self.data_failures / self.data_attempts


class WifiNetworkSimulator:
    """An 802.11 network over a shared topology.

    Args:
        topology: AP/client layout (shared with the LTE simulators).
        channel: propagation model.
        standard: Wi-Fi flavour (bandwidth, powers).
        rngs: named random streams.
        noise_figure_db: receiver noise figure.
    """

    def __init__(
        self,
        topology: Topology,
        channel: CompositeChannel,
        standard: WifiStandard,
        rngs: RngStreams,
        noise_figure_db: float = 7.0,
        interference_activity: float = 0.5,
    ) -> None:
        """See class docstring.

        ``interference_activity`` is the long-term duty cycle assumed for
        other cells when computing the SINR that drives rate adaptation
        (the paper's "ideal rate adaptation based on the receiver's SINR").
        """
        self.topology = topology
        self.channel = channel
        self.standard = standard
        self.rngs = rngs
        self.sim = Simulator()
        self.params = DcfParams(
            timings=FrameTimings(bandwidth_hz=standard.bandwidth_hz),
            rts_cts=standard.rts_cts,
        )
        self.medium = WifiMedium(
            sim=self.sim,
            loss_db=channel.loss_db,
            bandwidth_hz=standard.bandwidth_hz,
            params=self.params,
            noise_figure_db=noise_figure_db,
        )
        self.noise_dbm = thermal_noise_dbm(standard.bandwidth_hz, noise_figure_db)
        self.interference_activity = interference_activity
        self.nodes: Dict[int, CsmaNode] = {}
        self.reachable: Dict[int, bool] = {}
        self._client_station: Dict[int, int] = {}
        self._build()

    def _build(self) -> None:
        for ap in self.topology.aps:
            self.medium.add_station(
                Station(
                    station_id=ap.ap_id,
                    x=ap.x,
                    y=ap.y,
                    tx_power_dbm=self.standard.ap_tx_power_dbm,
                )
            )
        for client in self.topology.clients:
            sid = CLIENT_STATION_OFFSET + client.client_id
            self._client_station[client.client_id] = sid
            self.medium.add_station(
                Station(
                    station_id=sid,
                    x=client.x,
                    y=client.y,
                    tx_power_dbm=self.standard.client_tx_power_dbm,
                )
            )
        for ap in self.topology.aps:
            node = CsmaNode(
                sim=self.sim,
                medium=self.medium,
                station=self.medium.station(ap.ap_id),
                params=self.params,
                rng=self.rngs.stream(f"csma-backoff-{ap.ap_id}"),
            )
            self.nodes[ap.ap_id] = node
            for client in self.topology.clients_of(ap.ap_id):
                sid = self._client_station[client.client_id]
                sinr_db = self._long_term_sinr_db(ap.ap_id, sid)
                mcs = best_mcs(sinr_db - self.standard.mcs_margin_db)
                self.reachable[client.client_id] = mcs is not None
                if mcs is not None:
                    node.add_destination(sid, mcs)

    def _long_term_sinr_db(self, serving_ap: int, client_station: int) -> float:
        """SINR driving rate adaptation: noise + duty-cycled interference."""
        signal_w = dbm_to_watt(self.medium.rx_dbm(serving_ap, client_station))
        total_w = dbm_to_watt(self.noise_dbm)
        for other in self.topology.aps:
            if other.ap_id == serving_ap:
                continue
            total_w += self.interference_activity * dbm_to_watt(
                self.medium.rx_dbm(other.ap_id, client_station)
            )
        return linear_to_db(signal_w / total_w)

    def client_station_id(self, client_id: int) -> int:
        """Medium station id of a topology client."""
        return self._client_station[client_id]

    def enqueue(self, client_id: int, bits: float) -> None:
        """Queue downlink traffic for a client (dynamic workloads)."""
        client = self.topology.client(client_id)
        if not self.reachable.get(client_id, False):
            return  # Out of coverage: traffic is undeliverable.
        self.nodes[client.ap_id].enqueue(self._client_station[client_id], bits)

    def set_delivery_callback(
        self, callback: Callable[[int, float], None]
    ) -> None:
        """Install a delivery hook ``callback(client_id, bits)``."""

        def adapter(dest_station: int, bits: float, _cb=callback) -> None:
            _cb(dest_station - CLIENT_STATION_OFFSET, bits)

        for node in self.nodes.values():
            node.delivery_callback = adapter

    # -- Workload drivers -------------------------------------------------------

    def run_saturated(self, duration_s: float) -> WifiRunResult:
        """Backlogged downlink to every reachable client for ``duration_s``."""
        backlog_bits = 1e12  # Effectively infinite at these rates.
        for client in self.topology.clients:
            if self.reachable.get(client.client_id, False):
                self.enqueue(client.client_id, backlog_bits)
        return self._run(duration_s)

    def run_dynamic(
        self,
        duration_s: float,
        arrivals: List,
    ) -> WifiRunResult:
        """Run with scheduled traffic arrivals.

        Args:
            duration_s: simulated time.
            arrivals: iterable of ``(time_s, client_id, bits)`` tuples.
        """
        for time_s, client_id, bits in arrivals:
            self.sim.schedule_at(
                time_s,
                lambda c=client_id, b=bits: self.enqueue(c, b),
            )
        return self._run(duration_s)

    def _run(self, duration_s: float) -> WifiRunResult:
        # Periodically prune the interference history.
        self.sim.schedule_every(0.5, lambda: self.medium.prune_history())
        self.sim.run(until=duration_s)
        result = WifiRunResult(duration_s=duration_s)
        for client in self.topology.clients:
            cid = client.client_id
            result.reachable[cid] = self.reachable.get(cid, False)
            node = self.nodes[client.ap_id]
            sid = self._client_station[cid]
            stats = node.stats.get(sid)
            delivered = stats.bits_delivered if stats else 0.0
            result.throughput_bps[cid] = delivered / duration_s
            if stats:
                result.data_attempts += stats.data_attempts
                result.data_failures += stats.data_failures
        return result
