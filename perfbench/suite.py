"""Run every workload several times, each in a fresh process, and summarise.

    python3 perfbench/suite.py                          # every workload
    python3 perfbench/suite.py --workloads design_sweep

For each workload it runs ``perfbench/run.py`` for BENCHMARK.json's
``run_seconds``, untraced once per seed 1-10 and traced twice on seed 1.
It reports every metric as
median and quartiles (``statistics.quantiles(n=4)``) with the sample count,
the spread (q3 - q1) / median of each end-to-end metric against its bound in
BENCHMARK.json, whether the traced runs repeat every count exactly and agree
with the untraced run on counts and checks, and the measured tracing
overhead: median traced over median untraced ``wall_norm_s``, minus one.
The summary is written to ``.perfbench_out/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 600
SEEDS = range(1, 11)
TRACED_RUNS = 2
# per-layer metrics that are counts of work, and so must repeat exactly
EXACT_UNITS = ("count", "bytes")


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, full record) of one run in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(cmd)} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    tag = f"{workload}-seed{seed}-trace{trace}-full"
    record = json.loads((OUT_DIR / f"{tag}.json").read_text())
    return result, record


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = p.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        untraced = [_run(workload, s, seconds, 0) for s in SEEDS]
        traced = [_run(workload, SEEDS[0], seconds, 1) for _ in range(TRACED_RUNS)]
        records = [rec for _, rec in untraced]
        env = records[0]["environment"]
        entry = {"environment": {k: v for k, v in env.items() if k != "seed"},
                 "seeds": list(SEEDS),
                 "correct": all(res["correct"] for res, _ in untraced + traced),
                 "attempted": [res["attempted"] for res, _ in untraced],
                 "failed": [res["failed"] for res, _ in untraced],
                 "metrics": {}, "per_layer": {}}
        for name, m in records[0]["metrics"].items():
            st = _stats([rec["metrics"][name]["value"] for rec in records])
            st["unit"] = m["unit"]
            if name in bounds:
                st["bound"] = bounds[name]
                st["within_bound"] = st["spread"] <= bounds[name]
                st["within_third_of_bound"] = st["spread"] < bounds[name] / 3
                ok &= st["within_bound"]
            entry["metrics"][name] = st
        first = records[0]
        layer = [rec["metrics"] for _, rec in traced]
        for name, m in layer[0].items():
            if name not in first["metrics"]:
                entry["per_layer"][name] = dict(_stats([lm[name]["value"] for lm in layer]),
                                                unit=m["unit"])
        exact = [m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS]
        entry["counts_repeat_exactly"] = all(
            lm[name]["value"] == layer[0][name]["value"] for lm in layer for name in exact)
        entry["traced_matches_untraced"] = all(
            rec[key] == first[key] for _, rec in traced
            for key in ("correct", "attempted", "failed", "refused", "checks"))
        untraced_wall = statistics.median(rec["metrics"]["wall_norm_s"]["value"]
                                          for rec in records)
        traced_wall = statistics.median(lm["wall_norm_s"]["value"] for lm in layer)
        entry["trace_overhead_measured"] = traced_wall / untraced_wall - 1.0
        ok &= entry["counts_repeat_exactly"] and entry["traced_matches_untraced"]
        ok &= entry["correct"]
        summary["workloads"][workload] = entry

        print(f"== {workload}: {len(records)} untraced runs, {len(traced)} traced, "
              f"correct={entry['correct']}, attempted={entry['attempted'][0]}, "
              f"failed={entry['failed'][0]}")
        for name, st in entry["metrics"].items():
            bound = f"  spread {st['spread']:.4f} (bound {st['bound']})" if "bound" in st else ""
            print(f"  {name:<22} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                  f"q3 {st['q3']:<12.6g} n={st['n']} {st['unit']}{bound}")
        print(f"  counts repeat exactly: {entry['counts_repeat_exactly']}; traced matches "
              f"untraced: {entry['traced_matches_untraced']}; measured trace overhead "
              f"{entry['trace_overhead_measured']:+.4f}")
        for name, st in entry["per_layer"].items():
            print(f"    {name:<38} {st['median']:<12.6g} {st['unit']}")
    summary["ok"] = ok
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("suite ok" if ok else "suite FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
