"""poincarerep benchmark: drives ``poincarerep.cli.main`` in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout and nowhere else.
``--seconds`` fixes the amount of timed work (see ``Workload.rounds``).
Every output file of every item is compared by sha256 with
``reference.json``, recorded from the seed commit by
``record_reference.py``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics (tracing.py) with ``--trace 1``.  The
line before it holds the environment, the item count behind each
percentile, the failed share of items and the raw times.

End-to-end metrics:

- ``setup_s``: median over fresh processes of start, import, one small
  warm-up item and exit;
- ``wall_s`` and ``cpu_s``: wall and process CPU time of the timed items;
- ``rules_per_s``: rule verdicts in the outputs per ``wall_s``;
- ``item_p50_ms`` and ``item_tail_ms``: median item time and the highest
  percentile with at least ten items beyond it;
- ``peak_rss_mb``: peak resident memory of the process.

Every time is given at a reference core speed: scaled by the relative speed
that ``speed.SpeedProbe`` measured on this core while it ran.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracing
from workloads import WORKLOADS, Item

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "rules_per_s": "1/s",
    "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    pass


def load_cli():
    """Import poincarerep.cli from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "poincarerep" / "cli.py").is_file():
        raise HarnessError(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("poincarerep.cli")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise HarnessError(f"imported {cli.__file__}, not the checkout's copy")
    return cli


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def work_dir():
    """A private scratch directory inside the checkout, removed on exit."""
    base = ROOT / ".perfbench-work"
    path = base / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


# ---------------------------------------------------------------------------
# Items
# ---------------------------------------------------------------------------


def call_item(cli, item: Item) -> list[int]:
    """Run every step through the CLI entry point; the caller times this.

    A step that raises counts as exit code -1, so a crash is a failed item
    rather than a dead benchmark.
    """
    codes = []
    for argv, _ in item.steps:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(list(argv)))
        except Exception:
            traceback.print_exc()
            codes.append(-1)
    return codes


def item_outputs(item: Item) -> tuple[list[str], int]:
    """sha256 of each step's output file (cwd-relative) and the rule verdicts in them."""
    digests, rules = [], 0
    for _, out in item.steps:
        try:
            data = Path(out).read_bytes()
        except OSError:
            digests.append("missing")
            continue
        digests.append(hashlib.sha256(data).hexdigest())
        if out in ("sweep.json", "report.json"):
            with contextlib.suppress(ValueError):
                report = json.loads(data)
                rules += report["rulesChecked"] if "rulesChecked" in report else len(report["rules"])
    return digests, rules


def clear_outputs(item: Item) -> None:
    for _, out in item.steps:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)


@dataclass
class Pass:
    """Per-item times at the reference speed (see speed.py), and the raw ones."""

    times: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    raw_times: list[float] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    failed: int = 0
    rules: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.times)


def run_pass(cli, items: list[Item], reference: dict, tracer=None) -> Pass:
    result = Pass()
    marks = []
    probe = speed.SpeedProbe()
    ctx = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with ctx, probe.running():
        for index, item in enumerate(items):
            clear_outputs(item)
            if tracer is not None:
                tracer.item = index
            c0, t0 = time.process_time(), time.perf_counter()
            codes = call_item(cli, item)
            t1, c1 = time.perf_counter(), time.process_time()
            marks.append((t0, t1, c1 - c0))
            digests, rules = item_outputs(item)
            result.rules += rules
            if reference.get(item.key) != {"exit": codes, "sha256": digests}:
                result.failed += 1
                sys.stderr.write(f"output mismatch: {item.key!r} exit={codes}\n")
    for t0, t1, cpu in marks:
        busy, relative = probe.busy(t0, t1), probe.speed(t0, t1)
        result.raw_times.append(t1 - t0)
        result.speeds.append(relative)
        result.times.append((t1 - t0 - busy) * relative)
        result.cpu.append((cpu - busy) * relative)
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 items beyond it.

    With 10 items or fewer no percentile qualifies; the median is given
    instead (percentile 50), since the maximum of a few items is noise.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(p: Pass, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": p.wall_s,
        "cpu_s": sum(p.cpu),
        "rules_per_s": p.rules / p.wall_s,
        "item_p50_ms": 1000 * statistics.median(p.times),
        "item_tail_ms": 1000 * tail(p.times)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(t: tracing.Tracer, traced: Pass, cache_info,
              overhead_s: float) -> dict[str, tuple[float, str]]:
    raw_self_s, calls = t.span_totals()
    # Self times at the reference speed, like the end-to-end times, using the
    # traced pass's mean speed.
    scale = traced.wall_s / sum(traced.raw_times)
    self_s = collections.defaultdict(
        float, {name: seconds * scale for name, seconds in raw_self_s.items()})
    hits, misses = (cache_info.hits, cache_info.misses) if cache_info else (0, 0)
    distinct, irrep_calls = tracing.per_item_share(t.irreps)
    repeats, blocks = tracing.repeat_share(t.lorentz)
    out = {
        "radical.mul.calls": (t.counts["radical.mul"], "count"),
        "radical.add.calls": (t.counts["radical.add"], "count"),
        "radical.normalize.misses": (misses, "count"),
        "radical.normalize.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "radical.max_radicand": (t.max_radicand, "int"),
        "radical.max_den_bits": (t.max_den_bits, "bits"),
        "matrix.commutator.calls": (calls["matrix.commutator"], "count"),
        "matrix.commutator.self_s": (self_s["matrix.commutator"], "s"),
        "matrix.matmul.calls": (calls["matrix.matmul"], "count"),
        "matrix.matmul.self_s": (self_s["matrix.matmul"], "s"),
        "matrix.nnz_in": (t.nnz_in, "count"),
        "generators.direct_sum.self_s": (self_s["generators.direct_sum"], "s"),
        "generators.irrep.calls": (calls["generators.irrep"], "count"),
        "generators.irrep.distinct_ratio": (distinct / irrep_calls if irrep_calls else 0.0, "ratio"),
        "vectors.closed_form.self_s": (self_s["vectors.closed_form"], "s"),
        "vectors.recursion.self_s": (self_s["vectors.recursion"], "s"),
        "cg.vectors.self_s": (self_s["cg.vectors"], "s"),
        "cg.equivalence.self_s": (self_s["cg.equivalence"], "s"),
        "momentum.from_vectors.self_s": (self_s["momentum.from_vectors"], "s"),
        "verify.lorentz.self_s": (self_s["verify.lorentz"], "s"),
        "verify.lorentz.repeat_ratio": (repeats / blocks if blocks else 0.0, "ratio"),
        "verify.vector_rules.self_s": (self_s["verify.vector_rules"], "s"),
        "verify.translations.self_s": (self_s["verify.translations"], "s"),
        "verify.rules": (t.rules, "count"),
        "bundle.dump.self_s": (self_s["bundle.dump"], "s"),
        "bundle.load.self_s": (self_s["bundle.load"], "s"),
        "bundle.bytes": (t.bundle_bytes, "bytes"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer, n in t.layer_calls().items():
        out[f"{layer}.calls"] = (n, "count")
    return out


def check_layers(workload: str, layer_calls: dict[str, int]) -> None:
    """Tracing must not be silently empty: every layer is seen, except bundle on sweep."""
    idle = {"bundle"} if workload == "sweep" else set()
    wrong = [
        f"{layer}={n}" for layer, n in layer_calls.items()
        if (n == 0) != (layer in idle)
    ]
    if wrong:
        raise HarnessError(f"{workload}: unexpected layer call counts: {', '.join(wrong)}")


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def probe_setup(workload: str) -> tuple[float, float]:
    """(at reference speed, raw) wall time of a fresh process that imports the
    program and runs the warm-up item; the process reports its own core speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe exited {proc.returncode}")
    try:
        probe = json.loads(proc.stdout)
        return (elapsed - probe["busy"]) * probe["speed"], elapsed
    except (ValueError, KeyError, TypeError) as exc:
        raise HarnessError(f"set-up probe printed {proc.stdout[:200]!r}") from exc


def setup_probe(workload: str) -> dict:
    """The child side of probe_setup: import, warm up, report the core speed.

    Set-up lasts well under a second, so the core is sampled more often.
    """
    probe = speed.SpeedProbe(interval_s=0.02)
    t0 = time.perf_counter()
    with probe.running():
        cli = load_cli()
        with work_dir():
            call_item(cli, WORKLOADS[workload].warmup)
    t1 = time.perf_counter()
    return {"busy": probe.busy(t0, t1), "speed": probe.speed(t0, t1)}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and run the warm-up item only (used to time set-up)")
    return p.parse_args(argv)


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark; return (result line, report line)."""
    cli = load_cli()
    workload = WORKLOADS[workload_name]
    reference = load_reference()
    setups = [probe_setup(workload_name) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(norm for norm, _ in setups)
    items = workload.plan(seed, workload.rounds(seconds))
    with work_dir():
        warm = run_pass(cli, [workload.warmup], reference)
        passes = []
        if trace:
            # The traced pass comes first, so it sees the caches a timed pass
            # sees; the untraced pass after it then gives the overhead.
            tracer = tracing.Tracer()
            passes.append(run_pass(cli, items, reference, tracer))
            cache = getattr(sys.modules["poincarerep.radical"].normalize_radical,
                            "cache_info", None)
            cache_info = cache() if cache else None
            check_layers(workload_name, tracer.layer_calls())
        base = run_pass(cli, items, reference)
        passes.append(base)
        e2e = end_to_end(base, setup_s)
    failed = sum(p.failed for p in passes)
    attempted = len(items) * len(passes)
    n = len(base.times)
    report = {"workload": workload_name, "env": environment(seed),
              "percentiles": {"item_p50_ms": {"pct": 50.0, "items": n},
                              "item_tail_ms": {"pct": tail(base.times)[1], "items": n}},
              "warmup_ok": warm.failed == 0, "fail_frac": failed / attempted,
              "raw": {"setup_s": statistics.median(raw for _, raw in setups),
                      "wall_s": sum(base.raw_times),
                      "speed": statistics.median(base.speeds)}}
    if trace:
        layers = per_layer(tracer, passes[0], cache_info, passes[0].wall_s - base.wall_s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report.update(untraced=e2e, traced_wall_s=passes[0].wall_s,
                      missing_targets=tracer.missing)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    result = {"correct": failed == 0 and warm.failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload)))
            return 0
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError, subprocess.SubprocessError, ImportError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
