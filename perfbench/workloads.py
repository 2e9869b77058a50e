"""The three benchmark workloads and the checks on their outputs.

Each workload holds its loaded corpora and runs one iteration at a time
through a `Run`, which times every call into smoothlm, counts operations
and failures, and records the benchmark's output checks.  Checks run
between timed calls, so their cost is not part of `wall_s`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

import calibration
import numpy as np
from smoothlm import cli, corpus, decompose, neural, ngram, smoothers

GRID_D = [0.5, 0.75]
GRID_GAMMA_PLUS = [0.05, 0.1, 0.5]
GRID_GAMMA_MINUS = [0.1, 0.5, 1.0]
GRID_EPOCHS = 10
# the grid TSV prints 10 significant digits
GRID_RTOL = 1e-9
# `eval` prints 10 significant digits of a perplexity computed from the LM
# TSV's 12-digit probabilities
EVAL_RTOL = 1e-9
CHECK_CHUNK = 2048


class Run:
    """Timed calls, operation counts and check outcomes of one process."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.ops = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.tracer = None

    def call(self, fn, *args, timed=True):
        """Call into smoothlm, tracing it when a tracer is set.  An untraced
        timed call runs under a `calibration.SpeedSampler`; `raw` gets its
        time less the samples' own, and `scaled` that time at reference
        speed.  A traced call is not sampled, so its spans hold no samples."""
        sampler = calibration.SpeedSampler() if timed and self.tracer is None else None
        if sampler is not None:
            sampler.start()
        if self.tracer is not None:
            self.tracer.on = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.on = False
            if sampler is not None:
                sampler.stop()
                raw = end - start - sampler.own_seconds()
                self.scaled.append(sampler.scale(raw))
            else:
                raw = end - start
            if timed:
                self.intervals.append((start, end))
                self.raw.append(raw)

    def cli(self, argv) -> tuple[int, str]:
        """Run `smoothlm.cli.main` in process; one operation, failed on a
        nonzero exit code."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.call(cli.main, argv)
        self.op(code == 0, f"smoothlm {argv[0]} exited {code}")
        return code, out.getvalue()

    def op(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failed += 1
            print(f"failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        self.op(ok, f"check {what}")
        if not ok:
            self.check_failures.append(what)

    def timed_since(self, n: int) -> float:
        """Raw seconds of the timed calls from the n-th on."""
        return sum(self.raw[n:])


def load_corpora(run: Run, paths: dict):
    """The workload's training and held-out corpora.  Each held-out line is
    one operation, failed when it has a token unseen in training; the
    held-out corpus is then rejected and returned as None."""
    train = run.call(corpus.load_corpus, paths["train"], timed=False)
    try:
        heldout = run.call(corpus.load_corpus, paths["heldout"], train.vocab, timed=False)
    except ValueError:
        heldout = None
    with open(paths["heldout"], encoding="utf-8") as f:
        lines = [ln.split() for ln in f.read().splitlines() if ln.split()]
    known = train.vocab.id_of
    for toks in lines:
        run.op(all(t in known for t in toks), "held-out line has a token unseen in training")
    return train, heldout


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# tables_o3


def _chunks(keys, size=CHECK_CHUNK):
    keys = list(keys)
    for i in range(0, len(keys), size):
        yield keys[i:i + size]


def rows_are_distributions(lm) -> bool:
    for hs in _chunks(lm.table):
        rows = np.stack([lm.table[h] for h in hs])
        if (rows < 0).any() or (np.abs(rows.sum(axis=1) - 1.0) > ngram.PROB_ATOL).any():
            return False
    return True


def bundle_reconstructs(emp, lm, bundle) -> bool:
    """emp + Z+ p_plus - Z- p_minus rebuilds every smoothed row, Z+ == Z-."""
    if set(bundle.per_history) != set(lm.table):
        return False
    for hs in _chunks(bundle.per_history):
        decs = [bundle.per_history[h] for h in hs]
        zp = np.array([d.z_plus for d in decs])
        zm = np.array([d.z_minus for d in decs])
        recon = (np.stack([emp.table[h] for h in hs])
                 + zp[:, None] * np.stack([d.p_plus for d in decs])
                 - zm[:, None] * np.stack([d.p_minus for d in decs]))
        smoothed = np.stack([lm.table[h] for h in hs])
        if (np.abs(recon - smoothed) > decompose.RECON_ATOL).any():
            return False
        if (np.abs(zp - zm) > decompose.RECON_ATOL).any():
            return False
    return True


class TablesO3:
    """Library calls in memory: count, empirical rows, six smoothers, and a
    regularizer bundle plus held-out perplexity for each smoother that
    succeeds.  Work unit: smoothed history rows."""

    work_unit = "smoothed rows"

    def __init__(self, paths: dict, order: int, seed: int):
        self.paths = paths
        self.order = order

    def setup(self, run: Run) -> None:
        self.train, self.heldout = load_corpora(run, self.paths)

    def iteration(self, run: Run) -> int:
        table = run.call(corpus.count_ngrams, self.train, self.order)
        run.op(True, "count_ngrams")
        emp = run.call(ngram.empirical_conditional, table)
        run.op(True, "empirical_conditional")
        rows = 0
        for method in smoothers.METHODS:
            params = smoothers.default_params(method, table.order)
            try:
                lm = run.call(smoothers.smooth, table, method, params)
            except Exception:  # a smoother that raises is a failed operation
                traceback.print_exc(limit=1)
                run.op(False, f"smooth {method}")
                continue
            run.op(True, f"smooth {method}")
            rows += len(lm.table)
            run.check(rows_are_distributions(lm), f"{method} rows are distributions")
            bundle = run.call(decompose.build_regularizer, emp, lm, table, 1.0, 1.0)
            run.op(True, f"build_regularizer {method}")
            run.check(bundle_reconstructs(emp, lm, bundle), f"{method} bundle reconstructs")
            if self.heldout is None:
                run.op(False, f"perplexity {method}: no held-out corpus")
            else:
                run.call(ngram.perplexity, lm, self.heldout)
                run.op(True, f"perplexity {method}")
            del lm, bundle
        return rows


# ---------------------------------------------------------------------------
# grid_o2


def grid_config(paths: dict, out_dir: str, order: int, seed: int) -> dict:
    return {
        "corpus_path": paths["train"],
        "heldout_path": paths["heldout"],
        "order": order,
        "arch": "feedforward",
        "objective": "split_regularizer",
        "method": "kneser_essen_ney",
        "method_params": {"D": GRID_D},
        "gamma_plus": GRID_GAMMA_PLUS,
        "gamma_minus": GRID_GAMMA_MINUS,
        "epochs": GRID_EPOCHS,
        "patience": GRID_EPOCHS,
        "seed": seed,
        "out_dir": out_dir,
    }


def read_grid_rows(path: str) -> dict[tuple[str, str, str], tuple[float, float, int]]:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()[1:]
    rows = {}
    for ln in lines:
        params, gp, gm, loss, ppl, epochs = ln.split("\t")
        rows[(params, gp, gm)] = (float(loss), float(ppl), int(epochs))
    return rows


def _same_rows(a: tuple, b: tuple) -> bool:
    """(final loss, best perplexity, epochs run) agree to the TSV's digits."""
    return (a[2] == b[2] and _close(a[0], b[0], GRID_RTOL)
            and _close(a[1], b[1], GRID_RTOL))


class GridO2:
    """`smoothlm grid` in process, one worker, over D x g+ x g-.  Work unit:
    training epochs."""

    work_unit = "epochs"
    # the cell the benchmark retrains through the library to check the CLI
    library_cell = (0.75, 0.1, 0.5)

    def __init__(self, paths: dict, order: int, seed: int, reference: dict):
        self.paths = paths
        self.order = order
        self.seed = seed
        self.out_dir = os.path.join(paths["dir"], "grid_out")
        self.config_path = os.path.join(paths["dir"], "grid.json")
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(grid_config(paths, self.out_dir, order, seed), f)
        self.reference = reference
        self.expected_cell = None

    def setup(self, run: Run) -> None:
        self.train, self.heldout = load_corpora(run, self.paths)

    def _library_cell(self, run: Run) -> tuple:
        """One grid cell trained through `neural.train` with the CLI's
        defaults (feedforward 16/32, lr 0.05, init scale 0.1)."""
        d, gp, gm = self.library_cell
        config = neural.TrainConfig(
            objective="split_regularizer", method="kneser_essen_ney",
            method_params={"D": d}, gamma_plus=gp, gamma_minus=gm, lr=0.05,
            epochs=GRID_EPOCHS, patience=GRID_EPOCHS, seed=self.seed, init_scale=0.1)
        model = neural.FeedForwardLM(self.order, self.train.vocab, 16, 32,
                                     seed=self.seed, init_scale=0.1)
        _, m = run.call(neural.train, model, self.train, config, None, self.heldout, timed=False)
        return m.train_loss[-1], min(m.heldout_ppl), m.epochs_run

    def iteration(self, run: Run) -> int:
        tsv = os.path.join(self.out_dir, "grid_results.tsv")
        if os.path.exists(tsv):
            os.remove(tsv)
        code, _ = run.cli(["grid", "--config", self.config_path, "--workers", "1"])
        if code != 0:
            return 0
        rows = read_grid_rows(tsv)
        run.check(rows.keys() == self.reference.keys()
                  and all(_same_rows(rows[k], self.reference[k]) for k in rows),
                  "grid_results.tsv matches the reference recorded for this seed")
        if self.heldout is not None:
            if self.expected_cell is None:
                self.expected_cell = self._library_cell(run)
            d, gp, gm = self.library_cell
            got = rows.get((json.dumps({"D": d}, separators=(",", ":")), f"{gp:.10g}", f"{gm:.10g}"))
            run.check(got is not None and _same_rows(got, self.expected_cell),
                      "grid_results.tsv matches a cell retrained through the library")
        return sum(r[2] for r in rows.values())


# ---------------------------------------------------------------------------
# cli_o3


def tsv_rows(path: str, header_lines: int) -> int:
    n = 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 22):
            n += chunk.count(b"\n")
    return n - header_lines


class CliO3:
    """count -> smooth -> decompose -> eval --lm through `smoothlm.cli.main`.
    Work unit: TSV rows written plus read."""

    work_unit = "TSV rows"
    method = "kneser_essen_ney"

    def __init__(self, paths: dict, order: int, seed: int):
        self.paths = paths
        self.order = order
        d = paths["dir"]
        self.counts = os.path.join(d, "counts.tsv")
        self.lm = os.path.join(d, "lm.tsv")
        self.dec = os.path.join(d, "decomposition.tsv")
        self.expected_ppl = None
        self.rows = None

    def setup(self, run: Run) -> None:
        self.train, self.heldout = load_corpora(run, self.paths)

    def _in_memory_perplexity(self, run: Run) -> float:
        """Perplexity of the same LM kept in memory: the smoothed rows at
        full precision, with the uniform rule `eval` applies to histories
        the LM file does not list."""
        table = run.call(corpus.count_ngrams, self.train, self.order, timed=False)
        params = smoothers.default_params(self.method, self.order)
        lm = run.call(smoothers.smooth, table, self.method, params, timed=False)
        same = ngram.ConditionalLM(lm.order, lm.vocab, lm.table,
                                   backstop=ngram.uniform_backstop(lm.vocab), validate=False)
        return run.call(ngram.perplexity, same, self.heldout, timed=False)

    def iteration(self, run: Run) -> int:
        for path in (self.counts, self.lm, self.dec):
            if os.path.exists(path):
                os.remove(path)
        m = self.method
        run.cli(["count", "--corpus", self.paths["train"], "--order", str(self.order),
                 "--out", self.counts])
        run.cli(["smooth", "--counts", self.counts, "--method", m, "--out", self.lm])
        run.cli(["decompose", "--counts", self.counts, "--method", m, "--out", self.dec])
        code, out = run.cli(["eval", "--lm", self.lm, "--corpus", self.paths["heldout"]])
        if code == 0:
            if self.expected_ppl is None and self.heldout is not None:
                self.expected_ppl = self._in_memory_perplexity(run)
            got = float(out.split("perplexity\t")[1].split()[0])
            run.check(self.expected_ppl is not None
                      and _close(got, self.expected_ppl, EVAL_RTOL),
                      "eval --lm perplexity matches the in-memory LM")
        if self.rows is None and all(map(os.path.exists, (self.counts, self.lm, self.dec))):
            grams = tsv_rows(self.counts, 1)
            lm_rows = tsv_rows(self.lm, 2)
            # counts written once and read by smooth and decompose; LM
            # written once and read by eval; decomposition written once
            self.rows = 3 * grams + 2 * lm_rows + tsv_rows(self.dec, 1)
        return self.rows or 0


WORKLOADS = {"tables_o3": TablesO3, "grid_o2": GridO2, "cli_o3": CliO3}
