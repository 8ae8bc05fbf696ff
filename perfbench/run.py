"""LP benchmark: one closed-loop caller, one solve at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout.  The workload's
inputs are generated from the seed, then the corpus is solved in passes
until the next pass would end after ``--seconds``; at least one pass runs.

With ``--trace 0`` the end-to-end metrics are printed.  The times among them
are wall seconds calibrated to a fixed machine speed by a reference probe
sampled between operations (probe.py); the raw wall figures are printed too.

With ``--trace 1`` one untraced pass is followed by a traced pass that calls
the pipeline's stage functions one span each; it checks that both give the
same outcome, times the kernels on the largest scaled model, writes the spans
to ``perfbench/out/`` and prints the per-layer metrics.  The last line of
standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
VIOLATION_FLOOR = 1e-16
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import hybridlp; print(time.perf_counter() - t)"
)

# The package comes from this checkout's src/ and nowhere else; without it the
# benchmark exits with an error and prints no result.
sys.path[:0] = [str(SRC), str(HERE)]
try:
    import hybridlp
except ImportError as exc:
    sys.exit(f"perfbench: cannot import hybridlp from {SRC}: {exc}")
if Path(hybridlp.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: hybridlp was imported from {hybridlp.__file__}, not {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402

import hybridlp.pdhg  # noqa: E402
import hybridlp.warmstart  # noqa: E402
from hybridlp import run_ipm  # noqa: E402
from kernels import time_kernels  # noqa: E402
from probe import NOMINAL_S, Probe  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    check_nesting,
    check_operation_sums,
    layer_self_times,
    named_totals,
    patched,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    ipm_counters,
    ok_frac,
    run_operation,
    same_outcome,
    traced_operation,
)


def blas_threads() -> int:
    """OpenBLAS's thread count, read from the library numpy loaded; -1 if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "HYBRIDLP_THREADS": os.environ.get("HYBRIDLP_THREADS"),
    }


def time_import() -> float:
    """Seconds to import hybridlp (numpy and scipy included) in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout.strip())


def setup(wl, seed: int, probe: Probe):
    """Median over SETUP_REPEATS of (fresh import + building every input),
    each repetition calibrated like an operation."""
    totals = []
    for _ in range(SETUP_REPEATS):
        probe.tick()
        t0 = time.perf_counter()
        t_import = time_import()
        t1 = time.perf_counter()
        cases = wl.build(seed)
        t2 = time.perf_counter()
        probe.tick()
        totals.append(probe.calibrate(t_import + t2 - t1, at=(t0 + t2) / 2))
    return statistics.median(totals), cases


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def violation_digits(ops) -> float:
    """Mean of log10(max violation / 1e-16) over operations that produced one."""
    vals = [math.log10(max(o.max_violation, VIOLATION_FLOOR) / VIOLATION_FLOOR)
            for o in ops if not math.isnan(o.max_violation)]
    return statistics.fmean(vals) if vals else math.nan


def untraced_run(wl, cases, seconds: float, setup_s: float, probe: Probe):
    """Passes over the corpus until the next would end after `seconds`.

    Each operation's wall time is calibrated by the probe samples taken
    around it (see probe.py); the raw figures are printed.
    """
    ops, calibrated, passes, raw_passes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        pass_ops, mids = [], []
        for c in cases:
            probe.tick()
            t0 = time.perf_counter()
            pass_ops.append(run_operation(c, wl))
            mids.append(t0 + pass_ops[-1].seconds / 2)
        probe.tick()
        pass_cal = [probe.calibrate(o.seconds, at) for o, at in zip(pass_ops, mids)]
        ops.extend(pass_ops)
        calibrated.extend(pass_cal)
        passes.append(sum(pass_cal))
        raw_passes.append(sum(o.seconds for o in pass_ops))
        if time.perf_counter() + raw_passes[-1] > deadline:
            break
    for o in ops[: len(cases)]:
        if not o.ok:
            print(f"FAILED {o.case}: status={o.status} objective={o.objective} {o.error}",
                  file=sys.stderr)
    print(f"{wl.name}: {len(passes)} passes of {len(cases)} operations; "
          f"wall run {statistics.median(raw_passes):.3f} s, solve p50 "
          f"{statistics.median(o.seconds for o in ops):.4f} s over {len(ops)} operations; "
          f"probe {probe.mean_s() * 1e3:.2f} ms over {len(probe.samples)} samples "
          f"against {NOMINAL_S * 1e3:.1f} ms nominal")
    values = {
        "run_s": statistics.median(passes),
        "solve_s.p50": statistics.median(calibrated),
        "ok_frac": ok_frac(ops),
        "violation_log10.mean": violation_digits(ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return len(ops), sum(not o.ok for o in ops), values


def traced_pass(wl, cases, reference):
    """Solve every case through the staged composition, one span per stage.

    Returns the tracer, the traced results, the number of outcomes that
    differ from the untraced reference, warm and cold IPM iteration totals,
    and the largest scaled model with the point its last solver returned.
    """
    tr = Tracer()
    # calls made inside the stage functions, timed as spans of their own layer
    inner = [
        (hybridlp.warmstart, "run_ipm", "ipm", ipm_counters),
        (hybridlp.warmstart, "violation_summary", "lp_core", None),
        (hybridlp.warmstart, "unscale_point", "transform", None),
        (hybridlp.warmstart, "restrict_point", "lp_core", None),
        (hybridlp.warmstart, "postsolve", "transform", None),
        (hybridlp.warmstart, "evaluate_general_point", "lp_core", None),
        (hybridlp.pdhg, "estimate_opnorm", "pdhg", None),
    ]
    results, mismatches, warm_iters, cold_iters, largest = [], 0, 0, 0, None
    with patched(tr, inner):
        for i, (case, ref) in enumerate(zip(cases, reference)):
            tr.op = i
            top = traced_operation(tr, case, wl)
            results.append(top.result)
            if not same_outcome(top.result, ref):
                mismatches += 1
                print(f"MISMATCH {case.name}: untraced {ref} traced {top.result}",
                      file=sys.stderr)
            if top.warm:
                # the same scaled model from the default cold start, outside any span
                warm_iters += top.result.ipm_iterations
                cold_iters += run_ipm(top.solve_model)[1].iterations
            if largest is None or top.solve_model.A.nnz > largest[0].A.nnz:
                largest = (top.solve_model, top.point)
    return tr, results, mismatches, warm_iters, cold_iters, largest


def layer_values(spans, warm_iters: int, cold_iters: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its operations."""
    layers = layer_self_times(spans)
    named = named_totals(spans)

    def total(name):
        return named.get(name, 0.0)

    def attr_sum(name, key):
        return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    pdhg_iters = attr_sum("run_pdhg", "iterations")
    ipm_iters = attr_sum("run_ipm", "iterations")
    reductions = attr_sum("presolve", "reductions")
    values = {f"{layer}.self_s": layers.get(layer, 0.0)
              for layer in ("mps_io", "transform", "lp_core", "pdhg", "ipm", "warmstart")}
    values.update({
        "mps_io.parse_s": total("parse_mps"),
        "mps_io.parse_mb_per_s": ratio(attr_sum("parse_mps", "bytes") / 1e6, total("parse_mps")),
        "transform.presolve_s": total("presolve"),
        "transform.reductions": reductions,
        "transform.us_per_reduction": ratio(total("presolve"), reductions, 1e6),
        "transform.scale_s": total("ruiz_equilibrate"),
        "transform.postsolve_s": total("postsolve"),
        "lp_core.stdform_s": total("to_standard_form"),
        "lp_core.evaluate_s": total("evaluate_general_point"),
        "pdhg.iters": pdhg_iters,
        "pdhg.restarts": attr_sum("run_pdhg", "restarts"),
        "pdhg.us_per_iter": ratio(values["pdhg.self_s"] - total("estimate_opnorm"), pdhg_iters, 1e6),
        "pdhg.opnorm_s": total("estimate_opnorm"),
        "ipm.iters": ipm_iters,
        "ipm.ms_per_iter": ratio(values["ipm.self_s"], ipm_iters, 1e3),
        "ipm.stalls": attr_sum("run_ipm", "stalled"),
        "warmstart.center_s": total("centered_start"),
        "warmstart.ipm_iters": float(warm_iters),
        "warmstart.cold_ipm_iters": float(cold_iters),
        "warmstart.ipm_iter_ratio": ratio(warm_iters, cold_iters),
        "warmstart.escalations": attr_sum("warm_started_ipm", "escalations"),
        "warmstart.finish_s": total("finish_point"),
        "bench.unattributed_s": layers.get("bench", 0.0),
    })
    return values


def traced_run(wl, cases, seed: int, machine: dict, probe: Probe):
    probe.tick()
    t0 = time.perf_counter()
    reference = [run_operation(c, wl) for c in cases]
    untraced_s = time.perf_counter() - t0
    probe.tick()
    tr, results, mismatches, warm_iters, cold_iters, largest = traced_pass(wl, cases, reference)
    probe.tick()
    check_nesting(tr.spans)
    check_operation_sums(tr.spans)
    traced_s = sum(s.duration for s in tr.spans if s.parent is None)

    values = layer_values(tr.spans, warm_iters, cold_iters)
    values["bench.trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    values["bench.probe_ms"] = probe.mean_s() * 1e3
    values.update(time_kernels(*largest, wl.eps))

    layers = layer_self_times(tr.spans)
    shares = {k: round(v / traced_s, 4) for k, v in sorted(layers.items(), key=lambda kv: -kv[1])}
    print(f"{wl.name}: traced pass {traced_s:.3f} s, untraced pass {untraced_s:.3f} s; "
          f"self-time shares {json.dumps(shares)}")
    OUT.mkdir(exist_ok=True)
    tr.write_jsonl(OUT / f"trace_{wl.name}_s{seed}.jsonl",
                   {"workload": wl.name, "seed": seed, "machine": machine, "shares": shares})
    failed = sum(not o.ok for o in results) + mismatches
    return len(cases), failed, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="a nonnegative integer")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # the package's thread pool is measured slower and skews per-record times
    os.environ.pop("HYBRIDLP_THREADS", None)
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    machine = machine_record()
    print("machine " + json.dumps(machine))
    probe = Probe()
    setup_s, cases = setup(wl, args.seed, probe)
    if args.trace:
        attempted, failed, values = traced_run(wl, cases, args.seed, machine, probe)
    else:
        attempted, failed, values = untraced_run(wl, cases, args.seconds, setup_s, probe)

    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
                 "are not both declared in BENCHMARK.json and measured")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in declared.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
