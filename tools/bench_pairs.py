"""Paired benchmark runs of two commits, written as ``BENCH_<pr>.json``.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent HEAD --change . --pr NUMBER \\
        --workdir /tmp/pairs --claim inference:op_ms.min --what "..."

Each side is exported into its own copy of the tree under ``--workdir``:
a git revision with ``git archive``, or ``.`` for the working tree's
tracked and untracked, not ignored, files.  For seeds 0-9 and every
workload of ``BENCHMARK.json``, one pair of runs of ``perfbench/run.py
--trace 0`` is made at the benchmark's ``run_seconds``, each in its own
copy, the parent first on even seeds and the change first on odd seeds.
Every run's last output line is kept in ``<workdir>/runs.jsonl`` as it
finishes.

The output holds, per workload and end-to-end metric, both sides' q1,
median and q3 (numpy percentiles 25, 50 and 75) and all runs, the
change of the median in percent, and the number of pairs the change
won (ties count for neither side).  ``--claim`` names the metric a
change claims to improve, which each progress line then prints; a change
that claims no gain leaves it out, and the output records ``"claimed":
null``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision of the parent side")
    ap.add_argument("--change", required=True,
                    help="git revision of the change side, or . for the "
                         "working tree")
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--workdir", type=Path, required=True,
                    help="new or empty directory for the two tree copies")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="the metric the change claims to improve, if any")
    ap.add_argument("--what", required=True,
                    help="one sentence on what the change does")
    args = ap.parse_args(argv)
    if args.workdir.exists() and any(args.workdir.iterdir()):
        ap.error(f"--workdir {args.workdir} is not empty")
    return args


def git(*cmd, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *cmd], check=True,
                          capture_output=True, **kw)


def export(rev: str, dest: Path) -> str:
    """Copy the tree of ``rev`` (or the working tree, for ``.``) into
    ``dest``; return the commit it is, or is based on."""
    dest.mkdir(parents=True)
    if rev == ".":
        files = git("ls-files", "-co", "--exclude-standard", "-z").stdout
        names = [n for n in files.decode().split("\0")
                 if n and (ROOT / n).is_file()]
        tar = subprocess.run(["tar", "cf", "-", "--null", "-T", "-"],
                             cwd=ROOT, input="\0".join(names).encode(),
                             check=True, capture_output=True).stdout
        rev = "HEAD"
    else:
        tar = git("archive", "--format=tar", rev).stdout
    subprocess.run(["tar", "xf", "-"], cwd=dest, input=tar, check=True)
    return git("rev-parse", rev, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(med), 6),
            "q3": round(float(q3), 6),
            "runs": [round(float(v), 6) for v in values]}


def summarise(runs: list, units: dict) -> dict:
    """Per-metric statistics of one workload's pairs, in pair order."""
    out = {"pairs": len(runs),
           "failed": {s: sum(r[s]["failed"] for r in runs) for s in SIDES},
           "attempted": {s: sum(r[s]["attempted"] for r in runs)
                         for s in SIDES},
           "metrics": {}}
    for name, (unit, better) in units.items():
        vals = {s: [r[s]["metrics"][name]["value"] for r in runs]
                for s in SIDES}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(vals["parent"], vals["change"]))
        row = {"unit": unit, "better": better}
        row.update({s: quartiles(vals[s]) for s in SIDES})
        row["change_vs_parent_pct"] = round(
            100.0 * (row["change"]["median"] / row["parent"]["median"] - 1),
            2)
        row["change_wins"] = int(wins)
        out["metrics"][name] = row
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    claimed = None
    if args.claim is not None:
        claim_workload, claim_metric = args.claim.split(":", 1)
        claimed = {"workload": claim_workload, "metric": claim_metric}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    units = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    trees = {s: args.workdir / s for s in SIDES}
    commits = {s: export(rev, trees[s])
               for s, rev in zip(SIDES, (args.parent, args.change))}
    runs = {w: [] for w in workloads}
    with (args.workdir / "runs.jsonl").open("a") as log:
        for seed in range(SEEDS):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed,
                                          seconds)
                    log.write(json.dumps({"side": side, "workload": workload,
                                          "seed": seed, **pair[side]}) + "\n")
                    log.flush()
                    line = (f"seed {seed} {workload} {side}: failed "
                            f"{pair[side]['failed']}")
                    if claimed is not None:
                        value = pair[side]["metrics"][claim_metric]["value"]
                        line += f", {claim_metric} {value:.6g}"
                    print(line, flush=True)
                runs[workload].append(pair)
    result = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"seeds 0-{SEEDS - 1}, one pair per seed and "
                    f"workload; the parent runs first on even seeds, the "
                    f"change on odd seeds; each side in its own copy of "
                    f"the tree",
        "parent": commits["parent"],
        "host": f"{os.cpu_count()}-vCPU {platform.machine()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}",
        "claimed": claimed,
        "quartiles": f"q1 and q3 are numpy percentiles 25 and 75 of the "
                     f"{SEEDS} runs",
        "workloads": {w: summarise(runs[w], units) for w in workloads},
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
