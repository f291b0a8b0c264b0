"""Self-test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/test_harness.py

Each workload is swapped for a few dimension-5 to -12 items whose reference
digests are taken on the spot, then measured with and without tracing.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import BLOCKS, DRESSINGS, SOURCES, WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class Tiny(Workload):
    nominal_round_s = 1.0

    def __init__(self, name, warmup, items):
        self.name, self.warmup, self._items = name, warmup, items

    def plan(self, seed, rounds):
        return list(self._items)


TINY = {
    "sweep": Tiny("sweep", workloads.sweep_item(0), [workloads.sweep_item(1)]),
    "large": Tiny(
        "large",
        workloads.round_trip_item((1, 1, 0, 0), "closed-form", "both"),
        [workloads.round_trip_item((1, 1, 0, 0), s, b) for s in SOURCES for b in BLOCKS],
    ),
    "dressed": Tiny(
        "dressed",
        workloads.dressed_item((0, 1, 1, 0), "closed-form", "keep12", DRESSINGS[0]),
        [workloads.dressed_item((1, 1, 0, 0), s, b, d)
         for s, b, d in zip(SOURCES[:2] * 2, BLOCKS * 2, DRESSINGS)],
    ),
}


def tiny_reference(cli) -> dict:
    reference = {}
    with run.work_dir():
        for w in TINY.values():
            for item in [w.warmup, *w.plan(0, 1)]:
                codes = run.call_item(cli, item)
                reference[item.key] = {"exit": codes, "sha256": run.item_outputs(item)[0]}
    return reference


def measure_tiny(monkeypatch, name: str, trace: bool):
    cli = run.load_cli()
    reference = tiny_reference(cli)
    monkeypatch.setitem(WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    monkeypatch.setattr(run, "probe_setup", lambda workload: (0.5, 0.5))
    return run.measure(name, seed=1, seconds=1, trace=trace)


def test_every_listed_metric_is_emitted(monkeypatch):
    for key in ("end_to_end", "per_layer"):
        for metric in SPEC[key]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
    for name in TINY:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, report = measure_tiny(monkeypatch, name, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}, (name, trace)
            assert all(NAME.fullmatch(k) for k in emitted)
            assert {"nproc", "cpu", "python", "numpy", "commit", "seed"} <= set(report["env"])
            assert report["percentiles"]["item_tail_ms"]["items"] == len(TINY[name].plan(1, 1))


def test_trace_layers_and_restore(monkeypatch):
    cli = run.load_cli()
    original = cli.main
    result, _ = measure_tiny(monkeypatch, "sweep", True)
    metrics = result["metrics"]
    assert metrics["bundle.calls"]["value"] == 0
    assert metrics["verify.lorentz.self_s"]["value"] > 0
    assert cli.main is original
    # A layer that never shows up is an error, not an empty figure, and so
    # is bundle work where none is expected.
    calls = dict.fromkeys(tracing.LAYERS, 1)
    with pytest.raises(run.HarnessError, match="bundle=1"):
        run.check_layers("sweep", calls)
    calls["cg"] = 0
    with pytest.raises(run.HarnessError, match="cg=0"):
        run.check_layers("large", calls)


def test_reference_covers_every_seed():
    reference = json.loads((run.HERE / "reference.json").read_text())
    for w in WORKLOADS.values():
        assert w.warmup.key in reference
        universe = {item.key for item in w.universe()}
        assert universe <= reference.keys()
        for seed in range(-3, 40):
            assert all(item.key in universe for item in w.plan(seed, 2))


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)


def test_crashing_step_is_a_failed_item(capsys):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    assert run.call_item(Crashing, workloads.sweep_item(1)) == [-1]
    assert "RuntimeError: boom" in capsys.readouterr().err
