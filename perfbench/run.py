"""Benchmark of smoothlm: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tables_o3 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric by name with its unit, the workload's shape and the
environment.  `--trace 0` reports the end-to-end metrics of untraced runs;
`--trace 1` reports the per-layer metrics of one traced iteration.  Exits 1
when an output check fails and 2 when the benchmark cannot run.

End-to-end times are seconds at reference speed: the fixed loop in
`calibration.py` is timed before, during and after each timed call, and the
call's time is rescaled to the speed at which that loop takes
`calibration.REFERENCE_S`, which cancels most of a shared host's drift.
Raw times are printed beside them.

Every step runs in a fresh interpreter with BLAS and OpenMP pinned to one
thread: input generation, several set-up probes, and the workload run
itself, whose `ru_maxrss` is `peak_rss_mb`.  Inputs are generated from
`--seed` (for grid_o2, from one of the seeds its reference results were
recorded for; see `worker.input_seed`) under `.perfbench_work/` and removed
afterwards; traced runs keep their spans under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from worker import SCALES, input_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 15
DEADLINE_S = 170.0
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]
END_TO_END = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _worker(mode: str, args: list[str], env: dict, deadline: float, log_path: str) -> dict:
    """Run one worker step in a fresh interpreter; its stderr (the program's
    warnings) goes to `log_path`, whose tail is shown if the step fails."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} step")
    with open(log_path, "a", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, WORKER, mode, *args], env=env, cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=log, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} step exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as log:
            tail = "".join(log.readlines()[-20:])
        raise BenchError(f"{mode} step exited {proc.returncode}\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(a, env: dict, work_dir: str, deadline: float) -> tuple[dict, dict]:
    log = os.path.join(work_dir, "worker.log")
    common = ["--dir", work_dir, "--workload", a.workload, "--seed", str(a.input_seed),
              "--scale", a.scale]
    shape = _worker("generate", common, env, deadline, log)
    setups = []
    if not a.trace:
        setups = [_worker("setup", ["--dir", work_dir], env, deadline, log)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    run_args = common + ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        run_args += ["--spans", os.path.join(out_dir, f"spans-{a.workload}-{a.seed}.json")]
    res = _worker("run", run_args, env, deadline, log)
    res["setups"] = setups
    return shape, res


def report(a, env: dict, shape: dict, res: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    info = {
        "nproc": os.cpu_count(), "python": res["python"], "numpy": res["numpy"],
        "blas": res["blas"], "threads": {k: env[k] for k in THREAD_VARS},
    }
    print("env " + json.dumps(info, sort_keys=True))
    print(f"workload {a.workload} seed {a.seed} input_seed {a.input_seed} scale {a.scale} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in shape.items()))
    print(f"iterations {len(res['walls'])}; per iteration, s at reference speed "
          + " ".join(f"{t:.4f}" for t in res["walls"]) + "; raw s "
          + " ".join(f"{t:.4f}" for t in res["raw_walls"]))
    if a.trace:
        metrics = {**res["layers"], "ngram.heldout_unseen_share": shape["heldout_unseen_share"]}
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics = {
            "wall_s": res["wall_s"],
            "work_per_s": res["work_per_s"],
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    for name in sorted(metrics):
        suffix = f" ({res['work_unit']} per s)" if name == "work_per_s" else ""
        print(f"{name} {metrics[name]:.6g} {units[name]}{suffix}")
    print(f"ops {res['ops']}")
    print(f"ops_failed {res['failed']}")
    for what in res["check_failures"]:
        print(f"check failed: {what}")
    return {
        "correct": not res["check_failures"],
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(SCALES["full"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=list(SCALES), default="full",
                   help="input sizes; tiny is for the smoke test")
    a = p.parse_args()
    a.input_seed = input_seed(a.workload, a.scale, a.seed)
    if not os.path.isfile(os.path.join(ROOT, "src", "smoothlm", "__init__.py")):
        print(f"error: no smoothlm source under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = {**os.environ, **{k: "1" for k in THREAD_VARS}, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        shape, res = bench(a, env, work_dir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = report(a, env, shape, res)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
