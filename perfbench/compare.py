"""Compare saved benchmark results of two commits.

    python3 perfbench/compare.py --base perfbench/.results/A*.json --change perfbench/.results/B*.json

Prints, per metric, the median of each side and the change as a share of
the base median.  Refuses (exit status 2) to compare results whose
provenance differs in ``host_cpus``, workload, seconds or workload
parameters: numbers from different hosts or set-ups are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

MUST_MATCH = ("host_cpus", "workload", "seconds", "trace", "params")


def load(paths: List[str]) -> List[Dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def mismatch(records: List[Dict]) -> str:
    first = records[0]["provenance"]
    for record in records[1:]:
        for key in MUST_MATCH:
            if record["provenance"].get(key) != first.get(key):
                return f"{key} differs: {first.get(key)!r} vs {record['provenance'].get(key)!r}"
    return ""


def medians(records: List[Dict]) -> Dict[str, float]:
    names = records[0]["metrics"]
    return {name: statistics.median(r["metrics"][name]["value"] for r in records) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    if any(not r["correct"] for r in base + change):
        print("refusing: a result failed its output checks", file=sys.stderr)
        return 2
    why = mismatch(base + change)
    if why:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    units = {n: m["unit"] for n, m in base[0]["metrics"].items()}
    a, b = medians(base), medians(change)
    print(f"{'metric':34s} {'base':>14s} {'change':>14s} {'delta':>9s}  (n={len(base)} vs {len(change)})")
    for name in a:
        delta = (b[name] - a[name]) / a[name] if a[name] else float("nan")
        print(f"{name:34s} {a[name]:14.6g} {b[name]:14.6g} {delta:+9.2%}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
