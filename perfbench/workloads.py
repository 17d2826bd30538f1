"""The benchmark's three workloads, built only from public calls.

Every workload is a closed loop: the benchmark issues epoch k+1 (or grid
cell k+1) only after k returns.  Inputs derive from the workload seed
alone; see :func:`input_index`.  Every workload keeps one fixed
deployment (``DEPLOYMENT_SEED``) and draws every random stream (and, where
there is one, the demand set and the mobility) from the seed: layouts
drawn per seed moved the per-epoch cost by +-20 % and spread fig9a's
grid time past its bound, which would hide the changes the benchmark
exists to show.

* ``fig9a`` -- the paper's Figure 9(a) grid on one fixed deployment:
  densities 6/10/14 APs x 6 UEs x {802.11af, LTE, CellFi}, default
  backend, serial in-process; each cell is ``build_scenario`` with the
  seed's streams swapped in, then ``run_wifi_saturated`` or a
  ``SaturatedLteRun`` -- what ``large_scale_saturated_cell`` does.
* ``dense-saturated`` -- the LTE and CellFi arms on one 200-AP scenario
  (50 APs/km^2), default backend, backlogged demand, static topology.
* ``city-churn`` -- 300 APs x 10 UEs at 50 APs/km^2 on a two-shard
  process-mode ``ShardedNetwork`` under CellFi, light load, a mobile
  cohort every epoch and cross-seam re-attachments.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.plain_lte import PlainLtePolicy
from repro.core.interference.manager import CellFiInterferenceManager
from repro.experiments import common, large_scale
from repro.lte.network import BACKEND_INCREMENTAL, EpochResult, LteNetworkSimulator
from repro.lte.scheduler import ProportionalFairScheduler
from repro.phy.propagation import (
    CompositeChannel,
    GainMatrixCache,
    LogNormalShadowing,
    UrbanHataPathLoss,
)
from repro.phy.resource_grid import ResourceGrid
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.shard import ShardedNetwork
from repro.sim.topology import grid_partition, random_topology
from repro.traffic.backlogged import saturated_demand_fn
from repro.wifi.csma import Transmission, WifiMedium
from repro.wifi.network import WifiNetworkSimulator

from tracing import Patcher, Tracer, now

#: Workload seeds map onto this many input sets, each with committed
#: reference outputs, so every run can be checked bit for bit.
INPUT_POOL = 10

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        # One fixed deployment; a timed unit is one pass over the grid,
        # short enough that a run holds several and reports medians.  Wi-Fi
        # cells simulate 0.25 s of air time (the default 5 s takes ~60 s
        # per topology), enough for Wi-Fi to be most of a pass.
        "fig9a": {"densities": [6, 10, 14], "clients_per_ap": 6, "epochs": 12,
                  "wifi_duration_s": 0.25, "traced_passes": 2},
        # ``unit_epochs`` counts epochs per arm; ``depth`` is how many
        # timed epochs the references cover (~2x what fits in a run).
        "dense-saturated": {"n_aps": 200, "clients_per_ap": 6, "unit_epochs": 2,
                            "depth": 64, "traced_units": 2},
        "city-churn": {"n_aps": 300, "clients_per_ap": 10, "shards": 2,
                       "unit_epochs": 8, "depth": 240, "traced_units": 2},
    },
    "tiny": {
        "fig9a": {"densities": [6], "clients_per_ap": 3, "epochs": 3,
                  "wifi_duration_s": 0.02, "traced_passes": 1},
        "dense-saturated": {"n_aps": 12, "clients_per_ap": 3, "unit_epochs": 2,
                            "depth": 4, "traced_units": 1},
        "city-churn": {"n_aps": 16, "clients_per_ap": 3, "shards": 2,
                       "unit_epochs": 2, "depth": 4, "traced_units": 1},
    },
}

TECHS = (large_scale.TECH_WIFI, large_scale.TECH_LTE, large_scale.TECH_CELLFI)
DEPLOYMENT_SEED = 2017
DENSITY_PER_KM2 = 50.0
CULL_LOSS_DB = 135.0
CITY_DEMAND_BITS = 1e5
CITY_ACTIVE_SHARE = 0.10
CITY_MOVERS = 30
CITY_STEP_M = 20.0
CITY_SEAM_CLIENTS = 16
CITY_REATTACH_PER_EPOCH = 2


def input_index(seed: int) -> int:
    """The input set a workload seed selects."""
    return seed % INPUT_POOL


def sha(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def epoch_digest(result: EpochResult) -> str:
    """Digest of every client-visible epoch output; ``repr`` keeps every
    float bit, so equal digests mean bit-identical epochs."""
    return sha(
        (
            sorted(result.served_bits.items()),
            sorted(result.throughput_bps.items()),
            sorted(result.connected.items()),
            [
                (
                    ap_id,
                    obs.n_active_clients,
                    obs.estimated_contenders,
                    [
                        (
                            cid,
                            c.subband_cqi,
                            c.max_subband_cqi,
                            c.interference_detected,
                            sorted(c.scheduled_fraction.items()),
                        )
                        for cid, c in sorted(obs.clients.items())
                    ],
                )
                for ap_id, obs in sorted(result.observations.items())
            ],
        )
    )


class Checker:
    """Compares outputs with the reference store (or records them)."""

    def __init__(self, entries: Optional[Dict[str, Any]], record: bool = False):
        self.entries = {} if entries is None else entries
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, key: str, value: Any) -> bool:
        self.attempted += 1
        if self.record:
            self.entries[key] = value
            return True
        expected = self.entries.get(key)
        if expected == value:
            return True
        self.failed += 1
        self.messages.append(
            f"{key}: no reference" if expected is None
            else f"{key}: output differs from reference"
        )
        return False

    def fail(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{key}: raised {type(exc).__name__}: {exc}")


class Aborted(Exception):
    """An epoch raised; the simulator state can no longer be trusted."""


@dataclass
class Measurement:
    setup_s: List[float] = field(default_factory=list)
    unit_s: List[float] = field(default_factory=list)
    epoch_s: List[float] = field(default_factory=list)
    #: fig9a only: timed epochs per (density, technology) grid column.
    epoch_groups: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class TracedMeasurement:
    untraced: Measurement
    traced: Measurement
    tracer: Tracer
    #: Traced setup plus timed seconds the top-level spans should cover.
    covered_of: float = 0.0
    #: Counters from the traced timed phase and from the traced setup.
    extras: Dict[str, float] = field(default_factory=dict)
    setup_extras: Dict[str, float] = field(default_factory=dict)


# -- Trace wrappers -----------------------------------------------------------


def install_spans(p: Patcher, tracer: Tracer, acc: Dict[str, float],
                  parent_only: bool = False) -> None:
    """Span wrappers at each layer's public calls.  ``parent_only`` skips
    the classes shard workers run, so forked workers stay unwrapped."""

    def count(key, value):
        acc[key] = acc.get(key, 0.0) + value

    def shard_after(args, kwargs, result):
        net = args[0]
        compute = list(net.last_epoch_compute_s)
        count("shard.epochs", 1)
        count("shard.critical_s", max(compute))
        count("shard.compute_s", sum(compute))
        count("shard.imbalance_sum", max(compute) / (sum(compute) / len(compute)))
        epoch_stats(net.last_epoch_stats)

    def epoch_stats(stats):
        for key in ("dirty_rows", "clean_rows", "culled_columns", "total_columns"):
            count("lte." + key, stats.get(key, 0))

    scenario = tracer.span("experiments.build_scenario")
    p.replace(common, "build_scenario", scenario)
    p.replace(large_scale, "build_scenario", scenario)
    p.replace(CellFiInterferenceManager, "decide", tracer.span("cellfi.decide"))
    p.replace(ShardedNetwork, "__init__", tracer.span("shard.ctor"))
    p.replace(ShardedNetwork, "run_epoch", tracer.span("shard.run_epoch", shard_after))
    p.replace(ShardedNetwork, "move_client", tracer.span("shard.move_client"))
    p.replace(ShardedNetwork, "reattach_client", tracer.span("shard.reattach_client"))
    if parent_only:
        return
    p.replace(GainMatrixCache, "prefill", tracer.span(
        "phy.prefill",
        lambda a, k, r: count(
            "phy.prefill_links",
            len(a[1] if len(a) > 1 and a[1] is not None else a[0].client_index)
            * len(a[0].ap_index),
        ),
    ))
    p.replace(LteNetworkSimulator, "__init__", tracer.span("lte.ctor"))
    p.replace(LteNetworkSimulator, "run_epoch", tracer.span(
        "lte.run_epoch", lambda a, k, r: epoch_stats(a[0].last_epoch_stats)))
    p.replace(LteNetworkSimulator, "move_client", tracer.span("lte.move_client"))
    p.replace(LteNetworkSimulator, "reattach_client", tracer.span("lte.reattach_client"))
    p.replace(ProportionalFairScheduler, "allocate", tracer.span(
        "sched.allocate", lambda a, k, r: count("sched.clients", len(a[2]))))
    p.replace(WifiNetworkSimulator, "__init__", tracer.span("wifi.ctor"))
    p.replace(WifiNetworkSimulator, "run_saturated", tracer.span("wifi.run_saturated"))
    p.replace(WifiMedium, "sinr_db", tracer.hot_call("wifi.sinr_db"))


def install_counters(p: Patcher, tracer: Tracer) -> None:
    """Count-only wrappers for the hottest inner calls (no clock reads)."""
    p.replace(Transmission, "overlap_fraction",
              tracer.count_call("wifi.history_scans", nonzero="wifi.overlap_hits"))
    p.replace(WifiMedium, "sinr_db", tracer.count_call("wifi.sinr_calls"))
    p.replace(WifiMedium, "transmit", tracer.count_call("wifi.transmissions"))
    # schedule_at and schedule_every delegate to schedule.
    p.replace(Simulator, "schedule", tracer.count_call("engine.events"))


# -- fig9a --------------------------------------------------------------------


class CellClock:
    """Splits fig9a cells into setup and timed epochs from the outside.

    A cell's setup runs from the cell call to the end of its warm-up
    epoch 0 (LTE family) or to the start of ``run_saturated`` (Wi-Fi):
    scenario build, simulator construction, warm-up.
    """

    def __init__(self) -> None:
        self.cell_start = 0.0
        self.setup: Optional[float] = None
        self.epoch_s: List[float] = []

    def install(self, p: Patcher) -> None:
        clock = self

        def step_epoch(original):
            def wrapper(run):
                start = now()
                result = original(run)
                end = now()
                if clock.setup is None:
                    clock.setup = end - clock.cell_start
                else:
                    clock.epoch_s.append(end - start)
                return result
            return wrapper

        def run_saturated(original):
            def wrapper(net, duration_s):
                if clock.setup is None:
                    clock.setup = now() - clock.cell_start
                return original(net, duration_s)
            return wrapper

        p.replace(large_scale.SaturatedLteRun, "step_epoch", step_epoch)
        p.replace(WifiNetworkSimulator, "run_saturated", run_saturated)


class Fig9a:
    name = "fig9a"

    def __init__(self, seed: int, scale: str, checker: Checker) -> None:
        self.size = SIZES[scale][self.name]
        self.checker = checker
        self.input = input_index(seed)

    def _cell(self, n_aps: int, tech: str) -> Dict[str, Any]:
        """One grid cell on the fixed deployment with the seed's streams."""
        size = self.size
        scenario = dataclasses.replace(
            common.build_scenario(DEPLOYMENT_SEED, n_aps, size["clients_per_ap"]),
            rngs=RngStreams(self.input + 1),
        )
        if tech == large_scale.TECH_WIFI:
            run = large_scale.run_wifi_saturated(
                scenario, duration_s=size["wifi_duration_s"]
            )
            return {
                "connected_fraction": float(run.connected_fraction),
                "throughput_sha256": sha([float(t) for t in run.throughput_bps]),
            }
        sat = large_scale.SaturatedLteRun(
            tech, DEPLOYMENT_SEED, n_aps, size["clients_per_ap"],
            epochs=size["epochs"], scenario=scenario,
        )
        try:
            sat.run()
            return {"run_digest": sat.run_digest()}
        finally:
            sat.close()

    def _grid(self, clock: CellClock, tracer: Optional[Tracer] = None, techs=TECHS,
              groups: Optional[Dict[str, List[float]]] = None) -> Tuple[float, float]:
        """One pass over the grid; returns (wall seconds, summed setup).
        ``groups`` collects the timed epochs per (density, technology)."""
        size = self.size
        setup = 0.0
        start = now()
        for n_aps in size["densities"]:
            for tech in techs:
                key = f"{self.input}/{n_aps}/{tech}"
                if tracer is not None:
                    tracer.tag = key
                    index = tracer.open("experiments.cell")
                clock.cell_start = now()
                clock.setup = None
                first = len(clock.epoch_s)
                try:
                    outputs = self._cell(n_aps, tech)
                except Exception as exc:  # counted, the grid goes on
                    self.checker.fail(key, exc)
                    continue
                finally:
                    if tracer is not None:
                        tracer.close(index)
                setup += clock.setup or 0.0
                if groups is not None and tech != large_scale.TECH_WIFI:
                    groups.setdefault(key.split("/", 1)[1], []).extend(
                        clock.epoch_s[first:]
                    )
                self.checker.check(key, outputs)
        return now() - start, setup

    def run(self, seconds: float) -> Measurement:
        m = Measurement()
        clock = CellClock()
        with Patcher() as p:
            clock.install(p)
            start = now()
            while True:
                gc.collect()
                wall, setup = self._grid(clock, groups=m.epoch_groups)
                m.unit_s.append(wall)
                m.setup_s.append(setup)
                elapsed = now() - start
                if elapsed + elapsed / len(m.unit_s) > seconds:
                    break
        m.epoch_s = clock.epoch_s
        return m

    def run_traced(self, seconds: float) -> TracedMeasurement:
        tracer = Tracer()
        acc: Dict[str, float] = {}
        untraced, traced = Measurement(), Measurement()
        rounds = self.size["traced_passes"]
        for i in range(rounds):
            # Alternate which pass goes first so neither gains from order.
            passes = ((untraced, False), (traced, True))
            for m, trace in passes if i % 2 == 0 else passes[::-1]:
                clock = CellClock()
                with Patcher() as p:
                    clock.install(p)
                    if trace:
                        install_spans(p, tracer, acc)
                    gc.collect()
                    wall, setup = self._grid(clock, tracer if trace else None)
                m.unit_s.append(wall)
                m.setup_s.append(setup)
                m.epoch_s.extend(clock.epoch_s)
        # Count-only passes over the Wi-Fi cells: exact call counts, no clocks.
        with Patcher() as p:
            install_counters(p, tracer)
            for _ in range(rounds):
                self._grid(CellClock(), techs=(large_scale.TECH_WIFI,))
        result = TracedMeasurement(
            untraced=_summed(untraced), traced=_summed(traced), tracer=tracer,
            extras=acc,
        )
        result.covered_of = sum(traced.unit_s)
        return result

    def record(self) -> None:
        for k in range(INPUT_POOL):
            self.input = k
            self._grid(CellClock())


def _summed(m: Measurement) -> Measurement:
    """Traced grid passes folded into one figure."""
    return Measurement(setup_s=[sum(m.setup_s)], unit_s=[sum(m.unit_s)],
                       epoch_s=m.epoch_s)


# -- Epoch-driven workloads ---------------------------------------------------


class EpochWorkload:
    """Shared loop: setup (scenario, construction, warm-up epoch 0), then
    units of ``unit_epochs`` timed epochs, each checked after the unit."""

    name = ""
    #: Trace only parent-side classes (shard workers fork from this process).
    parent_only = False

    def __init__(self, seed: int, scale: str, checker: Checker) -> None:
        self.size = SIZES[scale][self.name]
        self.checker = checker
        self.input = input_index(seed)
        self.epoch = 0

    # Subclasses: inputs() -> generated inputs (untimed); build(inputs);
    # step(epoch) -> list of (key, result, seconds); close().

    def inputs(self) -> Any:
        return None

    def setup(self) -> float:
        """One setup: construction plus the checked warm-up epoch 0."""
        self.close()
        inputs = self.inputs()
        gc.collect()
        start = now()
        try:
            self.build(inputs)
        except Exception as exc:
            self.checker.fail(f"{self.input}/build", exc)
            raise Aborted(f"{self.input}/build") from exc
        results = self.step(0)
        elapsed = now() - start
        self._checked(results)
        self.epoch = 1
        return elapsed

    def _checked(self, results) -> None:
        for key, result, _ in results:
            self.checker.check(key, epoch_digest(result))

    def unit(self, m: Measurement) -> List[Tuple[str, EpochResult, float]]:
        results = []
        for _ in range(self.size["unit_epochs"]):
            results.extend(self.step(self.epoch))
            self.epoch += 1
        walls = [r[2] for r in results]
        m.unit_s.append(sum(walls))
        m.epoch_s.extend(walls)
        self._checked(results)
        return results

    def _room(self) -> bool:
        return self.epoch + self.size["unit_epochs"] <= self.size["depth"] + 1

    def run(self, seconds: float) -> Measurement:
        m = Measurement()
        try:
            for _ in range(SETUP_REPEATS):
                m.setup_s.append(self.setup())
            gc.collect()
            start = now()
            while self._room():
                self.unit(m)
                elapsed = now() - start
                if elapsed + elapsed / len(m.unit_s) > seconds:
                    break
        finally:
            self.close()
        return m

    def run_traced(self, seconds: float) -> TracedMeasurement:
        tracer = Tracer()
        acc: Dict[str, float] = {}
        untraced, traced = Measurement(), Measurement()
        result = TracedMeasurement(untraced, traced, tracer, extras=acc)
        try:
            with Patcher() as p:
                install_spans(p, tracer, acc, parent_only=self.parent_only)
                tracer.tag = "setup"
                traced.setup_s.append(self.setup())
            result.covered_of = traced.setup_s[0]
            result.setup_extras = dict(acc)
            acc.clear()
            self.after_traced_setup(result)
            for i in range(self.size["traced_units"]):
                # Alternate which pass goes first so neither gains from order.
                for trace in (False, True) if i % 2 == 0 else (True, False):
                    if not self._room():
                        break
                    gc.collect()
                    if not trace:
                        self.unit(untraced)
                        continue
                    with Patcher() as p:
                        install_spans(p, tracer, acc, parent_only=self.parent_only)
                        tracer.tag = f"epoch{self.epoch}"
                        results = self.unit(traced)
                    result.covered_of += traced.unit_s[-1]
                    self.after_traced_unit(result, results)
        finally:
            self.close()
        return result

    def after_traced_setup(self, result: TracedMeasurement) -> None:
        pass

    def after_traced_unit(self, result: TracedMeasurement, results) -> None:
        pass

    def record(self) -> None:
        for k in range(INPUT_POOL):
            self.input = k
            try:
                self.setup()
                while self._room():
                    self.unit(Measurement())
            finally:
                self.close()


class DenseSaturated(EpochWorkload):
    name = "dense-saturated"
    ARMS = (large_scale.TECH_LTE, large_scale.TECH_CELLFI)

    def __init__(self, seed: int, scale: str, checker: Checker) -> None:
        super().__init__(seed, scale, checker)
        self.arms: List[Dict[str, Any]] = []

    def build(self, inputs: Any) -> None:
        size = self.size
        scenario = common.build_scenario(
            DEPLOYMENT_SEED, size["n_aps"], size["clients_per_ap"]
        )
        streams = RngStreams(self.input + 1)
        grid = scenario.grid()
        self.arms = []
        for tech in self.ARMS:
            net = LteNetworkSimulator(
                topology=scenario.topology,
                grid=scenario.grid(),
                channel=scenario.channel,
                rngs=streams.fork(f"net-{tech}"),
            )
            policy = (
                PlainLtePolicy(scenario.ap_ids, grid.n_subchannels)
                if tech == large_scale.TECH_LTE
                else CellFiInterferenceManager(
                    scenario.ap_ids, grid.n_subchannels,
                    streams.fork("manager"),
                )
            )
            self.arms.append({
                "tech": tech, "net": net, "policy": policy,
                "demand": saturated_demand_fn(scenario.topology),
                "observations": None,
            })

    def step(self, epoch: int):
        out = []
        for arm in self.arms:
            key = f"{self.input}/{arm['tech']}/{epoch}"
            start = now()
            try:
                allowed = arm["policy"].decide(epoch, arm["observations"])
                result = arm["net"].run_epoch(epoch, allowed, arm["demand"](epoch))
            except Exception as exc:
                self.checker.fail(key, exc)
                raise Aborted(key) from exc
            out.append((key, result, now() - start))
            arm["observations"] = result.observations
        return out

    def close(self) -> None:
        self.arms = []


class CityChurn(EpochWorkload):
    name = "city-churn"
    parent_only = True

    def __init__(self, seed: int, scale: str, checker: Checker,
                 sharded: bool = True) -> None:
        super().__init__(seed, scale, checker)
        self.sharded = sharded
        self.net: Any = None

    # -- Inputs (pure functions of the input seed) --

    def _stream_seed(self) -> int:
        return self.input + 1

    def _area_m(self) -> float:
        return math.sqrt(self.size["n_aps"] / DENSITY_PER_KM2) * 1000.0

    def _topology(self):
        return random_topology(
            np.random.default_rng(DEPLOYMENT_SEED),
            n_aps=self.size["n_aps"],
            clients_per_ap=self.size["clients_per_ap"],
            area_m=self._area_m(),
            client_range_m=600.0,
        )

    def _simulator(self, shard_ap_ids=None) -> LteNetworkSimulator:
        seed = self._stream_seed()
        return LteNetworkSimulator(
            topology=self._topology(),
            grid=ResourceGrid(5e6),
            channel=CompositeChannel(
                UrbanHataPathLoss(),
                LogNormalShadowing(sigma_db=7.0, seed=DEPLOYMENT_SEED),
            ),
            rngs=RngStreams(seed),
            backend=BACKEND_INCREMENTAL,
            cull_loss_db=CULL_LOSS_DB,
            shard_ap_ids=shard_ap_ids,
        )

    def _events_plan(self, topology, plan) -> None:
        seed = self._stream_seed()
        rng = np.random.default_rng([seed, 1])
        n_aps = len(topology.aps)
        active = set(
            rng.choice(n_aps, max(1, int(n_aps * CITY_ACTIVE_SHARE)), replace=False).tolist()
        )
        self.demands = {
            c.client_id: (CITY_DEMAND_BITS if c.ap_id in active else 0.0)
            for c in topology.clients
        }
        clients = topology.clients
        picks = rng.choice(len(clients), min(CITY_MOVERS, len(clients) // 10), replace=False)
        self.movers = sorted(clients[int(i)].client_id for i in picks)
        self.positions = {
            cid: (topology.client(cid).x, topology.client(cid).y) for cid in self.movers
        }
        self.move_rng = np.random.default_rng([seed, 2])
        # Seam clients: those nearest an AP of another shard; each toggles
        # between its home AP and that foreign AP when its turn comes.
        shard_of = {ap: k for k, aps in enumerate(plan) for ap in aps}
        movers = set(self.movers)
        candidates = []
        for c in topology.clients:
            if c.client_id in movers:
                continue
            home = shard_of[c.ap_id]
            dist, ap_id = min(
                (math.hypot(ap.x - c.x, ap.y - c.y), ap.ap_id)
                for ap in topology.aps if shard_of[ap.ap_id] != home
            )
            candidates.append((dist, c.client_id, c.ap_id, ap_id))
        candidates.sort()
        self.seam = [list(c[1:]) for c in candidates[:CITY_SEAM_CLIENTS]]

    def _events(self, epoch: int):
        area = self._area_m()
        moves = []
        for cid in self.movers:
            x, y = self.positions[cid]
            dx, dy = self.move_rng.uniform(-CITY_STEP_M, CITY_STEP_M, size=2)
            x = min(max(x + float(dx), 0.0), area)
            y = min(max(y + float(dy), 0.0), area)
            self.positions[cid] = (x, y)
            moves.append((cid, x, y))
        reattaches = []
        for j in range(CITY_REATTACH_PER_EPOCH):
            entry = self.seam[(epoch * CITY_REATTACH_PER_EPOCH + j) % len(self.seam)]
            cid, home, away = entry
            entry[1], entry[2] = away, home
            reattaches.append((cid, away))
        return moves, reattaches

    def inputs(self):
        topology = self._topology()
        plan = grid_partition(topology, self.size["shards"])
        self._events_plan(topology, plan)
        return topology, plan

    def build(self, inputs) -> None:
        topology, plan = inputs
        if self.sharded:
            self.net = ShardedNetwork(
                topology, plan, self._simulator, RngStreams(self._stream_seed()),
                ResourceGrid(5e6), mode="process",
            )
        else:
            self.net = self._simulator()
        self.policy = CellFiInterferenceManager(
            [ap.ap_id for ap in topology.aps], self.net.grid.n_subchannels,
            RngStreams(self._stream_seed()).fork("manager"),
        )
        self.observations = None

    def step(self, epoch: int):
        key = f"{self.input}/{epoch}"
        moves, reattaches = self._events(epoch) if epoch else ([], [])
        start = now()
        try:
            allowed = self.policy.decide(epoch, self.observations)
            for cid, x, y in moves:
                self.net.move_client(cid, x, y)
            for cid, ap_id in reattaches:
                self.net.reattach_client(cid, ap_id)
            result = self.net.run_epoch(epoch, allowed, self.demands)
        except Exception as exc:
            self.checker.fail(key, exc)
            raise Aborted(key) from exc
        elapsed = now() - start
        self.observations = result.observations
        return [(key, result, elapsed)]

    def close(self) -> None:
        if self.net is not None and self.sharded:
            self.net.close()
        self.net = None

    def after_traced_setup(self, result: TracedMeasurement) -> None:
        """Worker-side build figures: the parent only sees the barrier."""
        prefill = [s["gain_prefill_s"] for s in self.net.worker_build_stats()]
        warm = [s for s in result.tracer.spans if s[0] == "shard.run_epoch"][-1]
        topology = self.net.topology
        result.setup_extras.update({
            "phy.prefill_s": max(prefill),
            "phy.prefill_sum_s": sum(prefill),
            "phy.prefill_links": float(len(topology.clients) * len(topology.aps)),
            # Workers build inside the warm-up barrier: its wall minus the
            # slowest worker's epoch-0 compute is their construction time.
            "lte.ctor_s": (warm[2] - warm[1]) - max(self.net.last_epoch_compute_s),
        })

    def after_traced_unit(self, result: TracedMeasurement, results) -> None:
        acc = result.extras
        for _, epoch_result, _ in results:
            acc["shard.result_bytes_sum"] = acc.get("shard.result_bytes_sum", 0.0) + len(
                pickle.dumps(epoch_result, protocol=pickle.HIGHEST_PROTOCOL)
            )


WORKLOADS = {cls.name: cls for cls in (Fig9a, DenseSaturated, CityChurn)}
