"""One benchmark process: generate inputs, time set-up, or run a workload.

    worker.py generate --dir D --workload W --seed S --scale full
    worker.py setup    --dir D
    worker.py run      --dir D --workload W --seed S --scale full --seconds N --trace 0|1

`run.py` starts a fresh interpreter for each of these and passes the input
seed, `input_seed(workload, scale, --seed)`, as `--seed`.  Each mode prints one
JSON object as its last line of standard output.  Module-level imports are
stdlib only, so the set-up time measured here includes importing numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "grid_reference.json")

# (sequences, |V|, order) of each workload's training and held-out corpora
SCALES = {
    "full": {"tables_o3": (1000, 300, 3), "grid_o2": (5000, 300, 2), "cli_o3": (600, 300, 3)},
    "tiny": {"tables_o3": (300, 30, 3), "grid_o2": (300, 30, 2), "cli_o3": (200, 30, 3)},
}


def corpus_paths(d: str) -> dict:
    return {"dir": d, "train": os.path.join(d, "train.txt"),
            "heldout": os.path.join(d, "heldout.txt")}


def _recorded_seeds(scale: str) -> list[int]:
    with open(REFERENCE, encoding="utf-8") as f:
        keys = json.load(f)
    return sorted(int(k.split(":")[1]) for k in keys if k.split(":")[0] == scale)


def input_seed(workload: str, scale: str, seed: int) -> int:
    """The seed a workload's inputs are made from.  grid_o2 is checked
    against results recorded for a fixed set of seeds, so `--seed` picks
    one of those (the seed modulo their number); the other workloads use
    `--seed` itself."""
    if workload != "grid_o2":
        return seed
    seeds = _recorded_seeds(scale)
    if not seeds:
        raise ValueError(f"grid_reference.json records no seed at scale {scale}")
    return seeds[seed % len(seeds)]


def grid_reference(scale: str, seed: int) -> dict:
    """The grid_results.tsv rows recorded for this input seed, keyed by
    (method_params, g+, g-)."""
    with open(REFERENCE, encoding="utf-8") as f:
        rows = json.load(f)[f"{scale}:{seed}"]
    return {tuple(r[:3]): tuple(r[3:]) for r in rows}


def generate(a) -> dict:
    """Write the workload's corpora; describe their shape from smoothlm's
    own count tables."""
    sys.path.insert(0, SRC)
    from smoothlm.corpus import count_ngrams, load_corpus
    from smoothlm.verify import markov_zipf_lines

    seqs, vocab, order = SCALES[a.scale][a.workload]
    paths = corpus_paths(a.dir)
    for key, seed in (("train", a.seed), ("heldout", a.seed + 1)):
        with open(paths[key], "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(markov_zipf_lines(seqs, vocab, seed)) + "\n")
    train = count_ngrams(load_corpus(paths["train"]), order)
    # the held-out corpus gets its own vocabulary, so that an unseen token
    # cannot stop the count; histories are compared as rendered text
    held = count_ngrams(load_corpus(paths["heldout"]), order)
    seen = {train.vocab.render_history(h) for h in train.history_count}
    unseen = sum(c for h, c in held.history_count.items()
                 if held.vocab.render_history(h) not in seen)
    return {
        "seqs": seqs, "vocab": vocab, "order": order,
        "histories": len(train.history_count), "grams": len(train.gram_count),
        "dense_fill": len(train.gram_count) / (len(train.history_count) * train.vocab.out_dim),
        "heldout_unseen_share": unseen / sum(held.history_count.values()),
    }


def timed_setup(paths: dict) -> float:
    """Seconds at reference speed to import smoothlm and load the training
    and held-out corpora."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from smoothlm.corpus import load_corpus

    train = load_corpus(paths["train"])
    try:
        load_corpus(paths["heldout"], vocab=train.vocab)
    except ValueError:
        pass  # counted as failed operations by the workload run
    raw = time.perf_counter() - t0
    import calibration

    return calibration.at_reference_speed(raw, [calibration.loop_seconds() for _ in range(5)])


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def run(a) -> dict:
    sys.path.insert(0, SRC)
    import numpy as np
    import tracing
    import workloads

    _, _, order = SCALES[a.scale][a.workload]
    kwargs = {}
    if a.workload == "grid_o2":
        kwargs["reference"] = grid_reference(a.scale, a.seed)
    wl = workloads.WORKLOADS[a.workload](corpus_paths(a.dir), order, a.seed, **kwargs)
    r = workloads.Run()
    wl.setup(r)

    steps, raw_walls, works = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < a.seconds:
        n = len(r.raw)
        works.append(wl.iteration(r))
        steps.append(r.scaled[n:])
        raw_walls.append(r.timed_since(n))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # every iteration makes the same calls in the same order; each call's
    # median over iterations drops the slow phases of a shared host
    wall_s = sum(statistics.median(times) for times in zip(*steps, strict=True))

    layers = None
    if a.trace:
        tracer = tracing.Tracer()
        tracer.install()
        r.tracer = tracer
        try:
            wl.setup(r)
            n = len(r.intervals)
            wl.iteration(r)
        finally:
            r.tracer = None
            tracer.uninstall()
        layers = tracer.layer_metrics(r.intervals[n:])
        layers["trace.overhead_s"] = r.timed_since(n) - statistics.median(raw_walls)
        tracer.dump(a.spans)

    return {
        "wall_s": wall_s, "work_per_s": statistics.median(works) / wall_s,
        "walls": [sum(s) for s in steps], "raw_walls": raw_walls, "work_unit": wl.work_unit,
        "peak_rss_mb": peak_rss_mb, "ops": r.ops, "failed": r.failed,
        "check_failures": r.check_failures, "layers": layers,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas_version(np),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["generate", "setup", "run"])
    p.add_argument("--dir", required=True)
    p.add_argument("--workload", choices=list(SCALES["full"]))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=list(SCALES), default="full")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spans", help="where the traced run writes its spans")
    a = p.parse_args()
    if a.mode == "generate":
        out = generate(a)
    elif a.mode == "setup":
        out = {"setup_s": timed_setup(corpus_paths(a.dir))}
    else:
        out = run(a)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
