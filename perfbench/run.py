"""The repository benchmark: one command, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload fig9a --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/workloads.py``): ``fig9a``,
``dense-saturated``, ``city-churn``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` is a separate traced run that prints
the per-layer metrics, the layer table (self time and calls per layer),
the tracing overhead against an untraced pass of the same work, and
every layer prediction the trace does not bear out.  A traced run does a
fixed amount of work (``traced_units`` / ``traced_passes`` in
``workloads.SIZES``) whatever ``--seconds`` says.

End-to-end metrics (host wall clock):

* ``setup_s`` -- scenario/topology build, simulator construction and one
  warm-up epoch; the median of several setups per run (fig9a: the sum of
  every grid cell's setup, median over the grid passes).
* ``run_s`` -- wall time of one timed unit: one pass over the grid for
  fig9a, ``unit_epochs`` closed-loop epochs (decide + events +
  ``run_epoch``) otherwise; the median over the units that fit in
  ``--seconds``.
* ``epoch_p50_s`` / ``epoch_tail_s`` -- median and the highest
  percentile that still has at least ten samples beyond it, over every
  timed epoch.  fig9a's LTE-family epochs fall into six (density,
  technology) groups of equal size whose costs differ up to 4x, so its
  ``epoch_p50_s`` is the mean of the six group medians (a pooled median
  would sit on the gap between groups); its tail pools every epoch.
* ``peak_rss_mb`` -- the larger of this process's peak RSS and that of
  its reaped shard workers.

Measurement rules, identical on every run: the warm-up epoch belongs to
``setup_s`` and never to the epoch statistics; ``gc.collect()`` runs
before each timed phase and GC stays enabled; peak RSS is read with
``getrusage`` for the process and for its children after every shard
worker has been closed and reaped.

Every cell or epoch output is compared with the committed references in
``perfbench/refs``; a mismatch or a raised exception counts as a failure
(``error_rate`` = failed / attempted) and makes the exit status 1.
Exit status 2 means the benchmark could not run at all.
``--record`` rewrites the references from the current code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
TIMING_KEYS = ("unit_epochs", "traced_units", "traced_passes")

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("epoch_p50_s", "s"),
    ("epoch_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def tail(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with >=10 samples
    beyond it; the maximum (p100) when there are fewer than 11 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def provenance(args, input_index: int) -> Dict[str, Any]:
    import numpy as np
    from repro.phy.vecmath import vectorized_report

    return {
        "cpu_count": os.cpu_count(),
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
        "vecmath": vectorized_report(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "input_index": input_index,
        "scale": args.scale,
    }


def load_refs(path: Path, size: Dict[str, Any]) -> Dict[str, Any]:
    stored = json.loads(path.read_text())
    if stored["size"] != output_size(size):
        raise ValueError("recorded for another workload size")
    return stored["entries"]


def output_size(size: Dict[str, Any]) -> Dict[str, Any]:
    """The size keys that decide the outputs (not how runs are timed)."""
    return {k: v for k, v in size.items() if k not in TIMING_KEYS}


def record(args, refs_path: Path) -> int:
    import workloads as wl

    cls = wl.WORKLOADS[args.workload]
    checker = wl.Checker(None, record=True)
    bench = cls(0, args.scale, checker)
    bench.record()
    if args.workload == "city-churn":
        # Cross-check once against an inline, unsharded run.
        cross = wl.Checker(checker.entries)
        wl.CityChurn(0, args.scale, cross, sharded=False).record()
        if cross.failed or cross.attempted != checker.attempted:
            print("\n".join(cross.messages[:20]), file=sys.stderr)
            print("sharded and unsharded city runs disagree", file=sys.stderr)
            return 1
        print(f"cross-checked {cross.attempted} epochs against an unsharded run")
    refs_path.parent.mkdir(parents=True, exist_ok=True)
    refs_path.write_text(json.dumps(
        {"workload": args.workload, "size": output_size(bench.size),
         "entries": checker.entries},
        indent=0, sort_keys=True,
    ) + "\n")
    print(f"recorded {checker.attempted} reference outputs in {refs_path}")
    return 0


def measure(args, bench) -> Tuple[Dict[str, Tuple[float, str]], List[str], Dict[str, str]]:
    """Run one workload; returns metrics, report lines and notes printed
    beside some metrics."""
    import layers

    lines: List[str] = []
    if args.trace:
        tm = bench.run_traced(args.seconds)
        values = layers.per_layer(tm)
        metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
        lines.append("layer table (traced run, self time excludes child spans):")
        lines.extend(layers.layer_table_lines(tm))
        lines.append(
            f"tracing overhead: traced run_s {values['trace.run_s']:.4f} s - "
            f"untraced run_s {values['trace.untraced_run_s']:.4f} s = "
            f"{values['trace.overhead_s']:.4f} s"
        )
        coverage = values["trace.coverage"]
        lines.append(
            f"top-level span coverage of traced setup_s + run_s: {coverage:.3f} "
            + ("(ok, >= 0.90)" if coverage >= 0.9 else "(BELOW 0.90)")
        )
        if "lte.ctor_s" in tm.setup_extras:
            lines.append(
                "worker-side (n/a, reported as 0): " + ", ".join(layers.WORKER_SIDE)
            )
        lines.append("predictions:")
        lines.extend(layers.prediction_lines(args.workload, values, tm))
        out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tm.tracer.dump(str(out))
        lines.append(f"spans written to {out.relative_to(ROOT)}")
        return metrics, lines, {}
    m = bench.run(args.seconds)
    value, pct = tail(m.epoch_s)
    p50 = (statistics.fmean(statistics.median(v) for v in m.epoch_groups.values())
           if m.epoch_groups else statistics.median(m.epoch_s))
    metrics = {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "run_s": (statistics.median(m.unit_s), "s"),
        "epoch_p50_s": (p50, "s"),
        "epoch_tail_s": (value, "s"),
    }
    lines.append(
        f"samples: {len(m.setup_s)} setups, {len(m.unit_s)} timed units, "
        f"{len(m.epoch_s)} timed epochs"
    )
    return metrics, lines, {"epoch_tail_s": f"(p{pct:.1f} of {len(m.epoch_s)} epochs)"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--refs", type=Path, default=HERE / "refs",
                        help="reference directory (default perfbench/refs)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the references from the current code")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro
        import workloads as wl
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    refs_path = args.refs / f"{args.workload}.json"
    if args.record:
        return record(args, refs_path)

    cls = wl.WORKLOADS[args.workload]
    checker = wl.Checker(None)
    bench = cls(args.seed, args.scale, checker)
    try:
        checker.entries = load_refs(refs_path, bench.size)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read references {refs_path}: {exc}", file=sys.stderr)
        return 2
    prov = provenance(args, wl.input_index(args.seed))
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("rules: warm-up epoch in setup_s, never in epoch statistics; gc.collect() "
          "before each timed phase, GC left enabled; peak RSS from getrusage of this "
          "process and its reaped children")
    if prov["NPY_DISABLE_CPU_FEATURES"]:
        print("note: NPY_DISABLE_CPU_FEATURES is set, so this is not the default "
              "CPU mode that headline numbers come from")
    metrics: Dict[str, Tuple[float, str]] = {}
    lines: List[str] = []
    notes: Dict[str, str] = {}
    try:
        metrics, lines, notes = measure(args, bench)
    except wl.Aborted as exc:
        lines.append(f"aborted at {exc}")
    gc.collect()
    if not args.trace:
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit} {notes.get(name, '')}".rstrip())
    error_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"error_rate {error_rate!r} fraction ({checker.failed} failed of "
          f"{checker.attempted} checked cells/epochs)")
    for message in checker.messages[:20]:
        print(f"mismatch: {message}")
    expected = [n for n, _ in END_TO_END] if not args.trace else None
    complete = expected is None or all(n in metrics for n in expected)
    correct = checker.failed == 0 and checker.attempted > 0 and complete
    result = {
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "report": lines, "result": result}, indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
