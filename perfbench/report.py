"""Summarise the results run.py saved under .perfbench_out/.

    python3 perfbench/report.py [RESULT.json ...]

With no arguments it reads every saved plain run (``*-trace0.json``).  Runs
are grouped by workload and full configuration, so only like is compared
with like; the smoke test's tiny runs are skipped.  For each group it prints
the median and quartiles of every end-to-end metric, and then the derived
CIFAR-10 epoch estimate, 50000 / train_paper img_per_s + 10000 / eval_paper
img_per_s, from the largest group of each.  The estimate is not gated; it
only puts the two throughputs in a user's terms.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(OUT_DIR.glob("*-trace0.json"))
    groups: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    for path in paths:
        result = json.loads(path.read_text())
        config = result["env"]["config"]
        if config["hw"] != 32:  # the smoke test's tiny net
            continue
        key = (config["name"], json.dumps(config, sort_keys=True))
        for name, metric in result["metrics"].items():
            groups[key][name].append(metric["value"])
            units[name] = metric["unit"]
    if not groups:
        print(f"no saved paper-size runs among {len(paths)} files")
        return 1
    for (workload, config), metrics in sorted(groups.items()):
        print(f"{workload}  {config}")
        for name, samples in metrics.items():
            med = statistics.median(samples)
            line = f"  {name:13s} median {med:.6g} {units[name]}, n={len(samples)}"
            if len(samples) >= 2:
                q1, _, q3 = statistics.quantiles(samples, n=4)
                line += f", quartiles {q1:.6g}..{q3:.6g}"
                if med:
                    line += f", spread {(q3 - q1) / med:.3f}"
            print(line)

    def largest(workload: str) -> list[float] | None:
        runs = [m["img_per_s"] for (w, _), m in groups.items() if w == workload]
        return max(runs, key=len, default=None)

    train, evals = largest("train_paper"), largest("eval_paper")
    if train and evals:
        seconds = 50000 / statistics.median(train) + 10000 / statistics.median(evals)
        print(f"CIFAR-10 epoch estimate (derived, ungated): {seconds / 60:.1f} min "
              f"= 50000 / train_paper img_per_s + 10000 / eval_paper img_per_s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
