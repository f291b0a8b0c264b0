"""Record reference.json: exit codes and output digests of every item.

Run once at the seed commit, from the root of the checkout:

    python3 perfbench/record_reference.py

It runs every item any seed can draw, plus the warm-up items, and checks
each verdict before recording it: a ``--block both`` bundle fails exactly
the six PP rules (exit 1), a one-block bundle passes all 45 (exit 0), the
sweep holds everywhere and every equiv fit is proportional.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from run import HERE, call_item, item_outputs, load_cli, work_dir
from workloads import WORKLOADS, Item

PP_RULES = {f"PP.{a}{b}" for i, a in enumerate("xyzt") for b in "xyzt"[i + 1:]}


def check_verdicts(item: Item, codes: list[int]) -> None:
    """Raise unless each step gave the verdict the mathematics requires."""
    for (argv, out), code in zip(item.steps, codes):
        data = json.loads(Path(out).read_text())
        if argv[0] == "gen":
            ok = code == 0
        elif argv[0] == "equiv":
            ok = code == 0 and data["proportional"]
        elif "--sweep" in argv:
            ok = code == 0 and data["allHold"] and not data["failures"]
        else:
            failing = {r["ruleId"] for r in data["rules"] if not r["holds"]}
            both = data["block"] == "both"
            ok = len(data["rules"]) == 45 and code == int(both) and (
                failing == (PP_RULES if both else set())
            )
        if not ok:
            raise SystemExit(f"unexpected verdict from {' '.join(argv)}: exit {code}")


def main() -> int:
    cli = load_cli()
    items: dict[str, Item] = {}
    for workload in WORKLOADS.values():
        for item in [workload.warmup, *workload.universe()]:
            items[item.key] = item
    reference = {}
    with work_dir():
        for n, (key, item) in enumerate(sorted(items.items()), 1):
            t0 = time.perf_counter()
            codes = call_item(cli, item)
            elapsed = time.perf_counter() - t0
            check_verdicts(item, codes)
            reference[key] = {"exit": codes, "sha256": item_outputs(item)[0]}
            print(f"{n}/{len(items)} {elapsed:.3f}s {key.splitlines()[0]}", flush=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
