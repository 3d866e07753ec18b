"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They take about two minutes: the traced runs of every workload are made
twice to check that the count metrics repeat exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Rounds, bands_of, load_pool  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes", "bits")


def _run(*args: str) -> tuple[dict, dict[str, str]]:
    """Run the benchmark; return its JSON result and its printed `name value unit` lines."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    lines = done.stdout.strip().splitlines()
    printed = {line.split()[0]: line for line in lines[:-1]}
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    pool = load_pool(name)
    first = [[e.id for e in Rounds(name, 7, pool)[r]] for r in range(3)]
    again = [[e.id for e in Rounds(name, 7, pool)[r]] for r in range(3)]
    other = [[e.id for e in Rounds(name, 8, pool)[r]] for r in range(3)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapping_then_unwrapping_leaves_outputs_identical(name, tmp_path):
    workload = WORKLOADS[name]
    lib = run.fresh_import()
    pool = load_pool(name)
    workload.prepare(lib, pool, tmp_path)
    bands = bands_of(pool)
    entries = [bands[0][0], bands[len(bands) // 2][0], bands[-1][0]]
    originals = (lib.exactnum.quad, lib.quad, lib.iet.Iet.apply, lib.cli.main, lib.bratteli)

    before = [workload.job(lib, e, tmp_path) for e in entries]
    tracer = Tracer()
    tracer.install()
    try:
        during = [workload.job(lib, e, tmp_path) for e in entries]
    finally:
        tracer.uninstall()
    after = [workload.job(lib, e, tmp_path) for e in entries]

    assert (lib.exactnum.quad, lib.quad, lib.iet.Iet.apply, lib.cli.main,
            lib.bratteli) == originals
    assert sum(tracer.counts.values()) > 0
    for entry, b, d, a in zip(entries, before, during, after):
        assert b.matches(entry) and d.matches(entry) and a.matches(entry)
        assert (b.outcome, b.output) == (d.outcome, d.output) == (a.outcome, a.output)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_every_layer_metric_is_emitted(name):
    first, _ = _run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    second, _ = _run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    assert first["correct"] and second["correct"]
    expected = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(first["metrics"]) == expected
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in COUNT_UNITS]
    assert counts
    for metric in counts:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_untraced_run_emits_every_end_to_end_metric():
    result, printed = _run("--workload", "chain-recount", "--seed", "2", "--seconds", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_JOBS
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_frac" in printed and "correctness" in printed
    assert int(printed["distinct_inputs"].split()[1]) >= run.MIN_JOBS
    assert int(printed["tail_samples_beyond"].split()[1]) >= 10


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "chain-recount",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
