"""Per-layer metrics, the layer table and the layer predictions.

All figures come from one traced run (:class:`workloads.TracedMeasurement`).
Setup-phase figures (scenario, prefill, construction) come from the
traced setup; timed-phase figures are totals over the traced timed
units, which are a fixed amount of work per workload.  fig9a has no
separate setup phase: every figure covers the traced grid cells.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Tuple

from tracing import LAYERS, LAYER_OF_PREFIX

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("experiments.scenario_s", "s"),
    ("phy.prefill_s", "s"),
    ("phy.prefill_links", "count"),
    ("phy.prefill_links_per_s", "1/s"),
    ("lte.ctor_s", "s"),
    ("lte.link_tables_s", "s"),
    ("lte.run_epoch_s", "s"),
    ("lte.epoch_self_s", "s"),
    ("lte.move_client_s", "s"),
    ("lte.reattach_client_s", "s"),
    ("lte.dirty_row_ratio", "ratio"),
    ("lte.cull_ratio", "ratio"),
    ("sched.allocate_calls", "count"),
    ("sched.allocate_s", "s"),
    ("sched.allocate_share", "ratio"),
    ("sched.clients_per_call", "count"),
    ("cellfi.decide_calls", "count"),
    ("cellfi.decide_s", "s"),
    ("shard.epoch_wall_s", "s"),
    ("shard.critical_s", "s"),
    ("shard.barrier_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.result_bytes", "bytes"),
    ("shard.event_send_s", "s"),
    ("wifi.ctor_s", "s"),
    ("wifi.run_s", "s"),
    ("wifi.sinr_calls", "count"),
    ("wifi.sinr_s", "s"),
    ("wifi.history_scans", "count"),
    ("wifi.history_per_sinr", "count"),
    ("wifi.overlap_hit_ratio", "ratio"),
    ("wifi.transmissions", "count"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
] + [(f"{prefix}.self_s", "s") for prefix in LAYER_OF_PREFIX if prefix != "engine"] + [
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]

#: Figures shard workers compute out of the parent's sight.
WORKER_SIDE = ("lte.epoch_self_s", "lte.move_client_s", "lte.reattach_client_s",
               "sched.allocate_calls", "sched.allocate_s", "sched.allocate_share",
               "sched.clients_per_call")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tm) -> Dict[str, float]:
    tracer = tm.tracer
    has_setup = any(s[4] == "setup" for s in tracer.spans)

    def spans(name: str, setup: bool):
        return [
            s for s in tracer.spans
            if s[0] == name and (not has_setup or (s[4] == "setup") == setup)
        ]

    def tot(name: str, setup: bool = False) -> float:
        return sum(s[2] - s[1] for s in spans(name, setup))

    def calls(name: str) -> int:
        return len(spans(name, False))

    acc, sacc = tm.extras, tm.setup_extras
    counts = tracer.counts
    sharded = "lte.ctor_s" in sacc
    m: Dict[str, float] = {}
    m["experiments.scenario_s"] = tot("experiments.build_scenario", True)
    m["phy.prefill_s"] = sacc["phy.prefill_s"] if sharded else tot("phy.prefill", True)
    links = sacc.get("phy.prefill_links", acc.get("phy.prefill_links", 0.0))
    m["phy.prefill_links"] = links
    m["phy.prefill_links_per_s"] = _ratio(links, sacc.get("phy.prefill_sum_s", m["phy.prefill_s"]))
    m["lte.ctor_s"] = sacc["lte.ctor_s"] if sharded else tot("lte.ctor", True)
    m["lte.link_tables_s"] = m["lte.ctor_s"] - m["phy.prefill_s"]
    m["lte.run_epoch_s"] = acc.get("shard.compute_s", 0.0) if sharded else tot("lte.run_epoch")
    m["lte.epoch_self_s"] = sum(s[2] - s[1] - s[5] for s in spans("lte.run_epoch", False))
    m["lte.move_client_s"] = tot("lte.move_client")
    m["lte.reattach_client_s"] = tot("lte.reattach_client")
    dirty, clean = acc.get("lte.dirty_rows", 0.0), acc.get("lte.clean_rows", 0.0)
    m["lte.dirty_row_ratio"] = _ratio(dirty, dirty + clean)
    m["lte.cull_ratio"] = _ratio(acc.get("lte.culled_columns", 0.0), acc.get("lte.total_columns", 0.0))
    m["sched.allocate_calls"] = calls("sched.allocate")
    m["sched.allocate_s"] = tot("sched.allocate")
    m["sched.allocate_share"] = _ratio(m["sched.allocate_s"], m["lte.run_epoch_s"])
    m["sched.clients_per_call"] = _ratio(acc.get("sched.clients", 0.0), m["sched.allocate_calls"])
    m["cellfi.decide_calls"] = calls("cellfi.decide")
    m["cellfi.decide_s"] = tot("cellfi.decide")
    m["shard.epoch_wall_s"] = tot("shard.run_epoch")
    m["shard.critical_s"] = acc.get("shard.critical_s", 0.0)
    m["shard.barrier_s"] = m["shard.epoch_wall_s"] - m["shard.critical_s"]
    epochs = acc.get("shard.epochs", 0.0)
    m["shard.imbalance"] = _ratio(acc.get("shard.imbalance_sum", 0.0), epochs)
    m["shard.result_bytes"] = _ratio(acc.get("shard.result_bytes_sum", 0.0), epochs)
    m["shard.event_send_s"] = tot("shard.move_client") + tot("shard.reattach_client")
    m["wifi.ctor_s"] = tot("wifi.ctor")
    m["wifi.run_s"] = tot("wifi.run_saturated")
    sinr_calls, sinr_s = tracer.hot.get("wifi.sinr_db", (0, 0.0))
    m["wifi.sinr_calls"] = sinr_calls
    m["wifi.sinr_s"] = sinr_s
    scans = counts.get("wifi.history_scans", 0.0)
    m["wifi.history_scans"] = scans
    m["wifi.history_per_sinr"] = _ratio(scans, counts.get("wifi.sinr_calls", 0.0))
    m["wifi.overlap_hit_ratio"] = _ratio(counts.get("wifi.overlap_hits", 0.0), scans)
    m["wifi.transmissions"] = counts.get("wifi.transmissions", 0.0)
    m["engine.events"] = counts.get("engine.events", 0.0)
    m["engine.events_per_s"] = _ratio(m["engine.events"], m["wifi.run_s"])
    table = tracer.layer_table()
    for prefix, layer in LAYER_OF_PREFIX.items():
        if prefix != "engine":
            m[f"{prefix}.self_s"] = table[layer]["self_s"]
    traced = statistics.median(tm.traced.unit_s)
    untraced = statistics.median(tm.untraced.unit_s)
    m["trace.run_s"] = traced
    m["trace.untraced_run_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    m["trace.coverage"] = _ratio(tracer.top_level_s(), tm.covered_of)
    if sharded:
        for name in WORKER_SIDE:
            m[name] = 0.0
    return m


def layer_table_lines(tm) -> List[str]:
    table = tm.tracer.layer_table()
    lines = [f"  {'layer':26s} {'self_s':>10s} {'calls':>10s}"]
    for layer in LAYERS:
        row = table[layer]
        lines.append(f"  {layer:26s} {row['self_s']:10.4f} {int(row['calls']):10d}")
    return lines


Prediction = Tuple[str, Callable[[Dict[str, float], object], object]]

#: Expected layer behaviour per workload.  A predicate returns True (borne
#: out), False (not borne out) or a string (cannot be checked, and why).
PREDICTIONS: Dict[str, List[Prediction]] = {
    "fig9a": [
        ("repro.wifi (with the engine callbacks it drives) takes >=90 % of run_s",
         lambda m, tm: m["wifi.self_s"] >= 0.9 * m["trace.run_s"]),
        ("the LTE layers take almost none of run_s (<=10 %)",
         lambda m, tm: m["lte.self_s"] + m["sched.self_s"] <= 0.1 * m["trace.run_s"]),
        ("build_scenario is a visible share of setup_s (>=25 %)",
         lambda m, tm: m["experiments.scenario_s"] >= 0.25 * tm.traced.setup_s[0]),
    ],
    "dense-saturated": [
        ("lte.scheduler is a large share of run_epoch (>=15 %; ~27 % on the LTE arm)",
         lambda m, tm: m["sched.allocate_share"] >= 0.15),
        ("build_scenario is ~1.0-1.4 s of ~3 s setup (20-60 % of setup_s)",
         lambda m, tm: 0.2 <= m["experiments.scenario_s"] / tm.traced.setup_s[0] <= 0.6),
        ("phy gain prefill is a visible share of setup_s (>=5 %)",
         lambda m, tm: m["phy.prefill_s"] >= 0.05 * tm.traced.setup_s[0]),
        ("nothing moves: no move/reattach calls, so caches are only read",
         lambda m, tm: m["lte.move_client_s"] == 0 and m["lte.reattach_client_s"] == 0),
        ("no shard or Wi-Fi work",
         lambda m, tm: m["shard.epoch_wall_s"] == 0 and m["wifi.run_s"] == 0),
    ],
    "city-churn": [
        ("phy prefill plus lte link tables dominate setup_s (>=50 %)",
         lambda m, tm: m["lte.ctor_s"] >= 0.5 * tm.traced.setup_s[0]),
        ("the sim.shard barrier is roughly half of each epoch (30-70 % of shard wall)",
         lambda m, tm: 0.3 <= _ratio(m["shard.barrier_s"], m["shard.epoch_wall_s"]) <= 0.7),
        ("cellfi.decide costs ~15 ms per epoch (5-45 ms)",
         lambda m, tm: 0.005 <= _ratio(m["cellfi.decide_s"], m["cellfi.decide_calls"]) <= 0.045),
        ("mobility writes gain-cache and link-table rows (dirty rows > 0)",
         lambda m, tm: m["lte.dirty_row_ratio"] > 0),
        ("scheduler work is small (~0)",
         lambda m, tm: "unobservable: the scheduler runs inside the shard workers"),
    ],
}


def prediction_lines(workload: str, m: Dict[str, float], tm) -> List[str]:
    lines = []
    for text, predicate in PREDICTIONS[workload]:
        verdict = predicate(m, tm)
        if verdict is True:
            lines.append(f"  borne out       {text}")
        elif verdict is False:
            lines.append(f"  NOT borne out   {text}")
        else:
            lines.append(f"  not checkable   {text} ({verdict})")
    return lines
