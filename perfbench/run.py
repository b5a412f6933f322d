"""Run one spinlift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compare_grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` there, never from an installed copy. With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics from
spans recorded around the library's entry points. Every metric is also printed
as a ``name = value unit`` line, together with the workload-specific metrics,
and the full record (environment, samples, refused operating points) is
written to ``.perfbench_out/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process: numpy's BLAS must not spread over the cores while
# it is being timed. Set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="target length of the timed work; fixes how many units run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long version of each workload, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_library():
    """Import spinlift from this checkout's src/ and nowhere else."""
    if not (SRC / "spinlift" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinlift sources under {SRC}; "
                         "run from the root of a spinlift checkout")
    sys.path.insert(0, str(SRC))
    import spinlift
    if Path(spinlift.__file__).resolve().parent != SRC / "spinlift":
        raise SystemExit(f"perfbench: imported spinlift from {spinlift.__file__}, not {SRC}")


def _spawn_seconds(cmd: list[str]) -> float:
    """Host seconds from spawning ``cmd`` until it prints its first line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe {cmd} failed (exit {proc.returncode})")
    return elapsed


def _probe_setup(args, speed) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported the
    library and built this workload's inputs, once per probe: as measured,
    and rescaled by the reference interpreter's time (``speed.REFERENCE_SPAWN``)
    averaged over the spawns right before and right after the probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale]
    reference = [sys.executable, "-c", speed.REFERENCE_SPAWN]
    raw, normalized = [], []
    before = _spawn_seconds(reference)
    for _ in range(SETUP_PROBES):
        elapsed = _spawn_seconds(cmd)
        after = _spawn_seconds(reference)
        raw.append(elapsed)
        normalized.append(elapsed * speed.REF_SPAWN_S / ((before + after) / 2.0))
        before = after
    return raw, normalized


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "git_commit": _git_commit(), "seed": seed}


def _declared_metrics() -> tuple[list[str], list[str]]:
    """(end-to-end names, per-layer names) as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import workloads
    if args.setup_probe:
        workloads.setup(args.workload, args.seed, args.seconds, args.scale)
        print("ready", flush=True)
        return 0
    import speed

    e2e_names, layer_names = _declared_metrics()
    setup_raw, setup_norm = _probe_setup(args, speed)
    plan = workloads.setup(args.workload, args.seed, args.seconds, args.scale)
    clock = speed.WorkClock()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(clock)
    OUT_DIR.mkdir(exist_ok=True)
    clock.start()
    try:
        out = workloads.execute(plan, tracer, clock, OUT_DIR)
    finally:
        clock.stop()
    unit_s = [end - begin for begin, end in out.units]
    unit_norm_s = [clock.reference_seconds(begin, end) for begin, end in out.units]

    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "setup_raw_s": (statistics.median(setup_raw), "s"),
        "wall_s": (statistics.median(unit_s), "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "failed_frac": ((out.failed + out.refused) / out.attempted, "1"),
        "wall_norm_s": (statistics.median(unit_norm_s), "s"),
        "speed_slices": (clock.ref_n, "count"),
        **out.metrics,
    }
    if tracer is not None:
        metrics.update(tracer.layer_metrics(sum(unit_s), sum(unit_norm_s) / sum(unit_s)))
    reported = layer_names if args.trace else e2e_names
    missing = [name for name in reported if name not in metrics]
    if missing:
        raise SystemExit(f"perfbench: workload did not produce {missing}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace, "environment": _environment(args.seed),
        "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
        "refused": out.refused,
        "failed_frac_base": f"{out.failed + out.refused} failed or refused of "
                            f"{out.attempted} operations",
        "checks": out.checks,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": {"setup_s": setup_norm, "setup_raw_s": setup_raw,
                    "unit_s": unit_s, "unit_norm_s": unit_norm_s},
        "details": out.details,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{tag}.spans.tsv.gz")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, passed in out.checks.items():
        print(f"check {name}: {'pass' if passed else 'FAIL'}")
    print(json.dumps({
        "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
