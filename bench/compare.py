"""Compare two sets of benchmark runs against each metric's bound.

    python bench/compare.py BASE.json CHANGE.json
    python bench/compare.py --pairs BASE.json CHANGE.json

Each file holds one ``results.json`` written by ``bench/run.py``, or a
JSON list of them (a set of runs, e.g. one per ``--seed``); a run may
hold any of the workloads, e.g. one ``--workload`` each.  Where a side
has two or more runs of a workload, each run's median is one sample, so
the spread is run to run; with a single run, its reps are the samples.

Prints one row per (workload, end-to-end metric): each side's median,
q1 and q3, the change, the bound from ``BENCHMARK.json``, and a verdict:

* ``regressed`` — the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` — a side's spread ((q3 - q1) / median) is wider than
  the bound, so no change cannot be told from noise, unless every
  sample of the change reads better than every sample of the base;
* ``unchanged`` — within the bound;
* ``improved`` — only with ``--pairs``, where run i of each file was
  made next to the other (base first and change first alternating):
  the change wins at least 9 in 10 pairs, ties counting for neither,
  and the medians differ by more than the base runs' q3 - q1.  At
  least ten pairs are required.

Refuses (exit 2) to compare runs whose ``env`` blocks differ in kernel
mode or model version.  Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from run import load_declarations, summarize

#: ``env`` fields that change what is measured; runs must agree on them.
MUST_MATCH = ("kernel_mode", "model_version")

MIN_PAIRS = 10


def load_runs(path: Path) -> List[dict]:
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def check_env(runs: List[dict]) -> None:
    for field in MUST_MATCH:
        seen = sorted({str(run["env"].get(field)) for run in runs})
        if len(seen) > 1:
            raise SystemExit(f"compare: refusing to compare runs with different {field}: {seen}")


def samples(runs: List[dict], workload: str, metric: str) -> List[float]:
    results = [run["workloads"][workload] for run in runs
               if run["workloads"].get(workload) is not None]
    if len(results) == 1:
        return results[0]["e2e"][metric]
    return [result["e2e_summary"][metric]["median"] for result in results]


def _better(value: float, than: float, higher: bool) -> bool:
    return value > than if higher else value < than


def verdict(base: List[float], change: List[float], bound: float, higher: bool) -> Dict:
    """Regression verdict from two samples of one metric."""
    a, b = summarize(base), summarize(change)
    delta = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    worse = -delta if higher else delta
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (a, b))
    if worse > bound:
        label = "regressed"
    elif spread > bound and not all(_better(x, y, higher) for x in change for y in base):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"base": a, "change": b, "delta": delta, "verdict": label}


def paired_gain(base: List[float], change: List[float], higher: bool) -> Dict:
    """The pairs rule: >= 9/10 wins and a median gap wider than the base's IQR."""
    wins = sum(_better(c, b, higher) for b, c in zip(base, change))
    a, b = summarize(base), summarize(change)
    improved = (
        len(base) >= MIN_PAIRS
        and wins >= 0.9 * len(base)
        and _better(b["median"], a["median"], higher)
        and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
    )
    return {"wins": wins, "pairs": len(base), "improved": improved}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", action="store_true",
                        help="run i of BASE and run i of CHANGE were made as a pair")
    args = parser.parse_args(argv)
    bases, changes = load_runs(args.base), load_runs(args.change)
    check_env(bases + changes)
    if args.pairs and (len(bases) != len(changes) or len(bases) < 2):
        parser.error("--pairs needs the same number (at least 2) of runs on each side")
    declared = load_declarations()["end_to_end"]

    def fmt(s):
        return f"{s['median']:11.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"

    print(f"base: {len(bases)} run(s); change: {len(changes)} run(s)")
    print(f"{'workload':16} {'metric':16} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    regressed = False
    for workload in dict.fromkeys(w for run in bases + changes for w in run["workloads"]):
        if not (samples(bases, workload, "jobs_per_s") and samples(changes, workload, "jobs_per_s")):
            print(f"{workload:16} missing from one side")
            continue
        for spec in declared:
            metric, higher = spec["name"], spec["better"] == "higher"
            base, change = samples(bases, workload, metric), samples(changes, workload, metric)
            row = verdict(base, change, spec["bound"], higher)
            extra = ""
            if args.pairs:
                pairs = paired_gain(base, change, higher)
                extra = f" ({pairs['wins']}/{pairs['pairs']} pairs won)"
                if pairs["improved"] and row["verdict"] != "regressed":
                    row["verdict"] = "improved"
            print(f"{workload:16} {metric:16} {fmt(row['base']):>34} {fmt(row['change']):>34} "
                  f"{100 * row['delta']:+7.2f}% {100 * spec['bound']:5.1f}%  "
                  f"{row['verdict']}{extra}")
            regressed |= row["verdict"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
