"""anisograph benchmark: drives ``anisograph.cli.main`` on generated scenarios.

    python3 perfbench/run.py --workload verify_curved_fine --seed 0 --seconds 55 --trace 0

Run from the repository root.  Every measured run is a fresh interpreter
(``child.py``) with a fresh output directory, one at a time: a closed loop
with one client.  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics listed in ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics of traced runs, which alternate
with untraced runs so the tracing overhead can be reported.  README.md in
this directory defines every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

CHILD = Path(__file__).resolve().with_name("child.py")
# Every child gets these, so compute threads never exceed the cores:
# numpy's OpenBLAS runs single-threaded and the sweep uses one thread per core.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    """Spawns child interpreters one at a time inside a private work directory."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), ANISO_THREADS=str(nproc()))
        self.env.update({name: "1" for name in PINNED_THREADS})

    def spawn(self, mode: str, plan: dict, tag: str) -> tuple[int, float, float, dict | None]:
        """Run one child; return exit code, wall seconds, peak RSS in MiB and its result.

        The peak RSS comes from ``wait4`` on the child, which covers the child
        and every process it started and waited for.  A child that fails has
        the end of its output copied to stderr.
        """
        plan_path = self.work / f"{tag}.plan.json"
        result_path = self.work / f"{tag}.result.json"
        log_path = self.work / f"{tag}.log"
        plan_path.write_text(json.dumps(plan))
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), mode, str(plan_path), str(result_path)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text().splitlines()[-20:]
            print(f"{mode} child {tag} exited {proc.returncode}:", *tail, sep="\n", file=sys.stderr)
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, result


def output_bytes(path: Path) -> int:
    """Bytes of the reports, without ``run.log`` (it carries timestamps)."""
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file() and f.name != "run.log")


def spawn_setup(runner: Runner, configs: list[str], tag: str) -> float:
    """Wall seconds for a fresh interpreter to import the CLI and load the scenarios."""
    code, wall, _, _ = runner.spawn("setup", {"configs": configs}, tag)
    if code != 0:
        raise SystemExit(f"set-up child exited {code}")
    return wall


def measure_runs(runner: Runner, workload: str, configs: list[str], seconds: float,
                 trace: bool, fingerprints: dict,
                 workers: int | None) -> tuple[list[dict], list[float]]:
    """Run children until ``seconds`` would be exceeded; judge each run's outputs.

    Untraced, every run is followed by a set-up child, so set-ups are spread
    over the window like the runs.  Traced, runs alternate between untraced
    and traced children and no set-up is timed.
    """
    modes = ["run", "trace"] if trace else ["run"]
    spawn_setup(runner, configs, "warmup")  # warms the file cache, writes bytecode
    deadline = time.perf_counter() + seconds
    laps, runs, setups = [], [], []
    for k in itertools.count():
        lap_start = time.perf_counter()
        mode = modes[k % len(modes)]
        out_root = runner.work / f"run{k}"
        ops = workloads.operations(workload, configs, out_root)
        plan = {"ops": [op.argv for op in ops], "configs": configs, "workers": workers}
        _, _, rss, result = runner.spawn(mode, plan, f"run{k}")
        codes = result["exit_codes"] if result else [None] * len(ops)
        runs.append({
            "mode": mode,
            "run_s": sum(result["seconds"]) if result else None,
            "peak_rss_mb": rss,
            "result": result,
            "problems": gate.judge(workload, ops, codes, fingerprints),
            "output_bytes": output_bytes(out_root) if out_root.exists() else 0,
        })
        shutil.rmtree(out_root, ignore_errors=True)
        if not trace:
            setups.append(spawn_setup(runner, configs, f"setup{k}"))
        laps.append(time.perf_counter() - lap_start)
        if len(runs) >= len(modes) and time.perf_counter() + statistics.median(laps) > deadline:
            return runs, setups


def completed(runs: list[dict], mode: str) -> list[dict]:
    done = [r for r in runs if r["mode"] == mode and r["result"]]
    if not done:
        raise SystemExit(f"no {mode} child completed")
    return done


def fastest(runs: list[dict]) -> dict:
    """The run least slowed by other load on the host (see README.md)."""
    return min(runs, key=lambda r: r["run_s"])


def trace_overhead(runs: list[dict]) -> float:
    """Median over neighbouring (untraced, traced) pairs of traced / untraced - 1.

    Pairing keeps both runs of a ratio in the same stretch of host load; the
    figure is still noisy and can be negative.
    """
    pairs = [(a, b) for a, b in zip(runs[::2], runs[1::2]) if a["result"] and b["result"]]
    if not pairs:
        raise SystemExit("no untraced and traced pair of runs completed")
    return statistics.median(b["run_s"] / a["run_s"] - 1.0 for a, b in pairs)


def layer_metrics(runs: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the fastest traced run, so they add up within one run."""
    traced = completed(runs, "trace")
    if not all(r["result"]["restored"] for r in traced):
        raise SystemExit("the tracer did not restore the wrapped functions")
    best = fastest(traced)
    metrics = dict(best["result"]["metrics"])
    metrics["trace.overhead_frac"] = trace_overhead(runs)
    metrics["cli.output_bytes"] = best["output_bytes"]
    return metrics, best["result"]["absent"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "anisograph" / "cli.py").is_file():
        print("run from a checkout of the repository: src/anisograph/cli.py is missing",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    fingerprints = gate.load_fingerprints()
    workers = min(len(workloads.SWEEP_THETAS), nproc()) if args.workload == "sweep_theta" else None

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work)
        configs = workloads.write_inputs(
            args.workload, workloads.scenarios(args.workload, args.seed, root), work / "inputs")
        runs, setup = measure_runs(runner, args.workload, configs, args.seconds,
                                   bool(args.trace), fingerprints, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(r["problems"]) for r in runs)
    failed = sum(1 for r in runs for p in r["problems"] if p)
    for k, r in enumerate(runs):
        for i, p in enumerate(r["problems"]):
            if p:
                print(f"run {k} operation {i} failed: {'; '.join(p)}", file=sys.stderr)

    if args.trace:
        metrics, absent = layer_metrics(runs)
    else:
        measured = completed(runs, "run")
        metrics = {
            "run_s": fastest(measured)["run_s"],
            "setup_s": min(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
        }
        absent = []
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")

    thread_env = " ".join(f"{k}={runner.env[k]}" for k in ("ANISO_THREADS", *PINNED_THREADS))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs, one child at a time; nproc={nproc()} sweep workers={workers} {thread_env}")
    print(f"run_s per run: {[round(r['run_s'], 4) for r in runs if r['result']]}")
    print(f"setup_s per set-up: {[round(s, 4) for s in setup]}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if absent:
        print(f"absent spans (reported as 0): {absent}")
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in report.items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    for name in sorted(set(metrics) - set(report)):
        print(f"  {name:32s} {metrics[name]:.6g} (this workload only; not in BENCHMARK.json)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
