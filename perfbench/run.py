"""qdbar benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --write-reference

One run generates the workload's configs from the seed, then runs them
through `qdbar.cli.parse_config` and `qdbar.cli.run_experiment` back to back
(one pass) until the next pass would end after S seconds; at least one pass
always runs.  Every experiment run is checked by `gate.py`.  The last line
of standard output is a JSON object with the keys correct, attempted, failed
and metrics: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of traced passes that alternate with untraced ones.  The
run exits nonzero when any experiment run fails the gate.

--all runs every workload in fresh processes, with and without tracing, and
prints every metric by name with its unit.  --write-reference stores the
window points and reports of the default seed in reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# gate, spans, workloads and qdbar import numpy, so they are imported inside
# functions, after cap_blas_threads() has run.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_PROBES = 15
# a child of --all runs a warm-up pass and then up to --seconds of passes
CHILD_MARGIN_S = 180


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(blas_threads):
    import numpy as np
    from qdbar import _kernels
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "have_numba": bool(_kernels.HAVE_NUMBA),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": blas,
        "blas_threads": blas_threads,
    }


def band_indices(config) -> int:
    """Window indices x bands one run of `config` processes."""
    from qdbar.elements import truncation_window
    data = config.data
    grid = config.t_grid()
    if config.experiment == "check-weights":
        lo, hi = data["weights_check"]["window"]
        return (hi - lo + 1) * len(grid)
    if config.experiment == "schur":
        sc = data["schur"]
        per_t = sum(sc["max_n"] + (1 if kind == "T1" else 0)
                    for kind in sc.get("kinds", ["T1", "T2"]))
    else:
        per_t = sum(sum(1 for _ in e.bands()) for e in config.element_list())
    family = config.family()
    return per_t * sum(
        truncation_window(family, t, config.tail_tol, config.k_cap).size
        for t in grid)


class Checker:
    """Gate for the experiment runs of one workload; counts failures.

    With a `reference` (label -> stored run), every run is compared with it,
    in full when `full` is set.  The last run of each label is kept in
    `runs`, in the reference's format.
    """

    def __init__(self, reference=None, full=True):
        self.reference = reference
        self.full = full
        self.attempted = 0
        self.failed = 0
        self.runs = {}

    def __call__(self, label, config, artifacts):
        import gate
        self.attempted += 1
        manifest = json.loads(artifacts.manifest_path.read_text())
        rows = gate.read_report(artifacts.report_path) \
            if artifacts.report_path.is_file() else None
        bad = gate.check_run(config.data, artifacts.exit_code, manifest, rows)
        if rows and self.reference is not None:
            if label in self.reference:
                bad += gate.compare_reference(manifest, rows,
                                              self.reference[label], self.full)
            else:
                bad.append("no stored reference for this config")
        if bad:
            self.failed += 1
            for reason in bad[:5]:
                print(f"FAIL {label}: {reason}", file=sys.stderr)
        self.runs[label] = {"points": gate.window_points(manifest), "rows": rows}


def run_pass(configs, work_dir, check):
    """Parse and run every config once; returns the seconds spent in qdbar."""
    from qdbar import cli
    spent = 0.0
    for label, text in configs:
        start = time.perf_counter()
        config = cli.parse_config(text)
        artifacts = cli.run_experiment(config, out_dir=work_dir / label)
        spent += time.perf_counter() - start
        check(label, config, artifacts)
    return spent


def remove_work_dir(work_dir):
    """Delete a run's output, and WORK with it once no other run uses it."""
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def setup_times(configs, work_dir):
    path = work_dir / "configs.json"
    path.write_text(json.dumps([text for _, text in configs]))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def tail_percentile(samples):
    """(percentile, value) with exactly 10 samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_workload(args, blas_threads):
    import spans
    import workloads
    from qdbar import cli

    configs = workloads.generate(args.workload, args.seed)
    reference = json.loads(REFERENCE.read_text())[args.workload]
    check = Checker(reference, full=args.seed == DEFAULT_SEED)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        print("environment " + json.dumps(environment(blas_threads), sort_keys=True))
        setup = [] if args.trace else setup_times(configs, work_dir)
        work = sum(band_indices(cli.parse_config(text)) for _, text in configs)
        untraced, traced = [], []
        tracer = spans.Tracer()
        if args.trace:
            # keep the slower first pass out of the traced/untraced comparison
            run_pass(configs, work_dir, check)
        started = time.perf_counter()
        while True:
            untraced.append(run_pass(configs, work_dir, check))
            if len(untraced) == 1:
                # later passes reuse freed memory, so the high-water mark
                # of one pass in a fresh process is the stable figure
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.trace:
                with spans.instrument(tracer):
                    traced.append(run_pass(configs, work_dir, check))
            spent = time.perf_counter() - started
            if spent * (1 + 1 / len(untraced)) > args.seconds:
                break
    finally:
        remove_work_dir(work_dir)

    # the first pass of a process pays page faults and allocator growth that
    # later passes do not; it is timed only when no other pass fits
    timed = untraced[1:] if len(untraced) > 1 else untraced
    run_s = statistics.median(timed)
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"{work} band-indices per pass")
    print("pass_s untraced " + " ".join(f"{t:.4f}" for t in untraced)
          + " traced " + " ".join(f"{t:.4f}" for t in traced))
    tail = tail_percentile(timed)
    print("run_s tail: " + (f"p{tail[0]:.0f} {tail[1]:.4f} s of {len(timed)}"
                            if tail else f"needs >= 11 passes, have {len(timed)}"))
    print(f"failed_frac {check.failed / check.attempted:.4f} "
          f"({check.failed} of {check.attempted} experiment runs)")
    if args.trace:
        values = spans.layer_metrics(tracer, traced, untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.metric_units()}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss / 1024.0, "unit": "MiB"},
            "band_index_rate": {"value": work / run_s / 1e6, "unit": "M/s"},
        }
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0 if check.failed == 0 else 1


def run_all(args):
    """Every workload in a fresh process, untraced then traced."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        for trace_flag in ("0", "1"):
            try:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", trace_flag],
                    capture_output=True, text=True,
                    timeout=3 * args.seconds + CHILD_MARGIN_S)
            except subprocess.TimeoutExpired as exc:
                print(f"{name} trace={trace_flag}: no result, timed out after "
                      f"{exc.timeout:.0f} s", file=sys.stderr)
                status = 1
                continue
            sys.stderr.write(proc.stderr)
            for line in proc.stdout.splitlines()[:-1]:
                print(f"{name} trace={trace_flag} {line}")
            status = status or proc.returncode
    return status


def write_reference(args):
    """Store the default seed's runs, each checked by the gate first."""
    import workloads
    out = {}
    for name in workloads.WORKLOADS:
        check = Checker()
        work_dir = WORK / f"reference-{os.getpid()}"
        work_dir.mkdir(parents=True)
        try:
            run_pass(workloads.generate(name, DEFAULT_SEED), work_dir, check)
        finally:
            remove_work_dir(work_dir)
        out[name] = check.runs
        if check.failed:
            print(f"{name}: gate failed, reference not written", file=sys.stderr)
            return 1
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdbar" / "__init__.py").is_file():
        print(f"perfbench: no qdbar source tree at {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import qdbar
    if Path(qdbar.__file__).resolve().parent != (SRC / "qdbar").resolve():
        print(f"perfbench: qdbar imported from {qdbar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.write_reference:
        return write_reference(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    return run_workload(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
