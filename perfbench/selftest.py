"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It records tiny-size references into ``perfbench/out/selftest-refs``,
then for every workload runs the untraced and the traced command and
checks that each exits 0 with ``error_rate`` 0 and prints every metric
by name with its unit.  It then tampers one reference digest per
workload and checks that the run counts the mismatch and exits nonzero,
and that a copy of the benchmark without the program's sources exits
nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFS = OUT / "selftest-refs"
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402

WORKLOADS = ("fig9a", "dense-saturated", "city-churn")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--scale", "tiny",
         "--refs", str(REFS), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_run(workload: str, trace: int, problems: list) -> None:
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        return
    result = result_of(proc)
    expected = PER_LAYER if trace else END_TO_END
    if result["failed"] or not result["correct"]:
        problems.append(f"{label}: outputs differ from the references")
    if sorted(result["metrics"]) != sorted(name for name, _ in expected):
        problems.append(f"{label}: metric names {sorted(result['metrics'])}")
    lines = proc.stdout.splitlines()
    for name, unit in expected:
        if not any(l.split()[:1] == [name] and l.split()[2:3] == [unit] for l in lines):
            problems.append(f"{label}: {name} not printed with unit {unit}")
    if not any(l.startswith("error_rate 0.0 ") for l in lines):
        problems.append(f"{label}: error_rate is not 0")


def check_tampered(workload: str, problems: list) -> None:
    path = REFS / f"{workload}.json"
    original = path.read_text()
    stored = json.loads(original)
    key = sorted(stored["entries"])[0]
    stored["entries"][key] = "tampered"
    path.write_text(json.dumps(stored))
    try:
        proc = bench("--workload", workload, "--seed", "0")
    finally:
        path.write_text(original)
    result = result_of(proc)
    if proc.returncode == 0 or not result["failed"] or result["correct"]:
        problems.append(f"{workload}: a tampered reference went unnoticed")
    if not any(l.startswith("error_rate ") and not l.startswith("error_rate 0.0 ")
               for l in proc.stdout.splitlines()):
        problems.append(f"{workload}: error_rate stayed 0 with a tampered reference")


def check_without_sources(problems: list) -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig9a",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("a copy without src/ did not fail cleanly")


def main() -> int:
    problems: list = []
    for workload in WORKLOADS:
        proc = bench("--workload", workload, "--seed", "0", "--record")
        if proc.returncode != 0:
            problems.append(f"{workload}: recording failed\n{proc.stdout}{proc.stderr}")
            continue
        for trace in (0, 1):
            check_run(workload, trace, problems)
        check_tampered(workload, problems)
    check_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
