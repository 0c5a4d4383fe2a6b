"""Drive one workload through vaerec's public functions and CLI commands.

One process, one closed-loop client: each operation starts after the
previous one has returned. A run has two parts.

1. Set-up, timed: write the seeded ratings log, ``prepare`` it, and save a
   reference checkpoint per model kind from a fixed seed. It repeats, into
   a directory of its own, every other round of part 2.
2. The measured part: rounds, until ``--seconds`` have passed and at least
   ``MIN_ROUNDS`` rounds have run. A round runs every measured operation
   once: a ``ROUND_EPOCHS``-epoch ``train()`` call per model kind on a fixed
   slice of the prepared split, ``prepare``, ``eval`` of each checkpoint on
   the test fold, and a fixed list of ``recommend`` requests. An epoch is
   timed from the return of one epoch callback to the next, so it holds the
   training pass, per-epoch validation and the best-epoch snapshot; the
   first epoch, which also builds the model, is not a sample. Every round
   does the same work, so every round must give the same bytes and losses.

Each timing is the median of its samples, one a round (for ``recommend``,
one a request); ``recommend_p95_ms`` is the 95th percentile of the request
samples. The samples spread over the whole run and over every CPU the
process may use: successive rounds run on successive CPUs.

After the rounds an untimed ``train()`` of svae gives ``val_ndcg100`` and,
on ``svae-long``, the check against the popularity ranker.

A traced run replaces part 2 by a smaller fixed plan whose every step runs
once untraced and once under the tracer; it reports per-layer figures and
the difference in wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from vaerec import cli
from vaerec import data as dp
from vaerec.evaluation import PopularityRanker, evaluate
from vaerec.models import MODEL_KINDS, ModelConfig, build_model
from vaerec.models import checkpoint, training

from perfbench.tracing import Tracer
from perfbench.workloads import DELIMITER, Workload, generate_log

MODEL_SEEDS = {"svae": 101, "mvae": 102, "rvae": 103}
# the split's seed; with the workloads' fixed size profiles it puts users of
# the same sizes in each fold for every workload seed
SPLIT_SEED = 0
# a large validation fold steadies val_ndcg100 from seed to seed; a small
# test fold keeps each eval, and so each round, short
SPLIT_FRACTIONS = "0.6,0.38,0.02"
TOP_N = 10
# rounds in a run, at least; each runs every measured operation once
MIN_ROUNDS = 4
# epochs of each round's train() call; all but the first are samples
ROUND_EPOCHS = 2
# epochs per model kind in the traced plan
TRACE_EPOCHS = 2


class CheckFailed(AssertionError):
    """An operation returned, but its output is wrong."""


class NoSamples(RuntimeError):
    """Every attempt at some measured operation failed."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class State:
    """What set-up leaves for the measured part of the run."""

    log: str
    split_dir: str
    split: dp.DatasetSplit
    train_split: dp.DatasetSplit
    checkpoints: dict
    requests: list
    split_digest: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)

    def run(self, label: str, fn):
        """Run one operation; a raise or a failed check counts as a failure
        and leaves no sample."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one bad operation must not end the run
            self.failed += 1
            print(f"operation {label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def sample(self, name: str, label: str, fn, scale: float = 1.0) -> None:
        """Run an operation and keep what it returns as a sample of ``name``."""
        value = self.run(label, fn)
        if value is not None:
            self.add(name, value * scale)

    def summary(self, name: str, reduce=statistics.median) -> float:
        if not self.samples.get(name):
            raise NoSamples(f"no successful sample of {name}")
        return reduce(self.samples[name])


def _quiet(argv: list[str]) -> str:
    """Run a CLI command in-process and return what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    _check(code == 0, f"vaerec {argv[0]} exited with {code}")
    return out.getvalue()


def split_digest(split_dir: str) -> str:
    h = hashlib.sha256()
    for name in dp.SPLIT_FILES + ("vocabulary.tsv", "manifest.json"):
        with open(os.path.join(split_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _prepare_argv(log: str, out: str) -> list[str]:
    return ["prepare", log, "--out", out, "--delimiter", DELIMITER,
            "--fractions", SPLIT_FRACTIONS, "--seed", str(SPLIT_SEED)]


def model_config(wl: Workload, **overrides) -> ModelConfig:
    return ModelConfig(**{**wl.config, **overrides})


def setup(wl: Workload, seed: int, work: str) -> State:
    os.makedirs(work, exist_ok=True)
    log = os.path.join(work, "ratings.log")
    split_dir = os.path.join(work, "split")
    generate_log(wl, seed, log)
    _quiet(_prepare_argv(log, split_dir))
    split, _ = dp.load_split(split_dir)
    checkpoints = {}
    for kind in MODEL_KINDS:
        model = build_model(kind, split.n_items, model_config(wl, seed=MODEL_SEEDS[kind]),
                            n_users=len(split.train))
        base = os.path.join(work, f"{kind}-checkpoint")
        checkpoint.save_checkpoint(base, model, split.vocabulary.raw_ids(),
                                   split.vocabulary.digest(), epoch=0, validation_score=None)
        checkpoints[kind] = base
    train_split = dp.DatasetSplit(split.train[: wl.train_users],
                                  split.validation[: wl.val_users], [],
                                  split.vocabulary, split.fold_ratio)
    # one request from the middle of each of n equal fold-in-length strata of
    # the held-out users, so the requests' lengths, and p95 with them,
    # follow theirs; the test fold alone is too small
    held_out = sorted(split.validation + split.test,
                      key=lambda u: (len(u.fold_in), u.user_index))
    n = wl.requests_per_round
    picks = [held_out[(2 * r + 1) * len(held_out) // (2 * n)] for r in range(n)]
    requests = [",".join(split.vocabulary.to_raw(i) for i in user.fold_in) for user in picks]
    return State(log, split_dir, split, train_split, checkpoints, requests,
                 split_digest(split_dir))


# ---------------------------------------------------------------------------
# operations; each returns its wall time and checks its own output


def op_prepare(wl: Workload, state: State, out: str) -> float:
    started = time.perf_counter()
    _quiet(_prepare_argv(state.log, out))
    elapsed = time.perf_counter() - started
    _check(split_digest(out) == state.split_digest,
           "prepare wrote a split that differs from the set-up split")
    return elapsed


def op_train(wl: Workload, state: State, kind: str, epochs: int, work: str,
             expected: dict | None = None):
    """One train() call, then a checkpoint of the selected epoch as ``vaerec
    train`` writes it; returns (epoch seconds, the selected model).

    An epoch runs from one callback's return to the next callback. The first
    epoch, which also builds the model, is not returned. With ``expected``,
    the epochs' losses must repeat those of the first call of this kind."""
    entered, left = [], []
    losses = []

    def on_epoch(stats):
        entered.append(time.perf_counter())
        losses.append((stats.train_loss, stats.val_ndcg100))
        left.append(time.perf_counter())

    config = model_config(wl, epochs=epochs, seed=MODEL_SEEDS[kind])
    model, curve = training.train(kind, state.train_split, config, callback=on_epoch)
    best = max(curve, key=lambda stats: stats.val_ndcg100)
    vocabulary = state.split.vocabulary
    checkpoint.save_checkpoint(os.path.join(work, f"trained-{kind}"), model,
                               vocabulary.raw_ids(), vocabulary.digest(),
                               epoch=best.epoch, validation_score=best.val_ndcg100)
    _check(len(entered) == epochs, f"{kind}: {len(entered)} epoch callbacks, expected {epochs}")
    _check(all(math.isfinite(loss) for loss, _ in losses), f"{kind}: non-finite training loss")
    _check(all(0.0 <= v <= 1.0 for _, v in losses), f"{kind}: validation NDCG out of [0, 1]")
    if expected is not None:
        _check(losses == expected.setdefault(kind, losses),
               f"{kind}: losses differ from the first round's")
    epoch_s = [end - start for start, end in zip(left, entered[1:])]
    return epoch_s, model


def op_eval(state: State, kind: str, expected: dict) -> float:
    argv = ["eval", "--checkpoint", state.checkpoints[kind], "--split-dir", state.split_dir,
            "--split", "test"]
    started = time.perf_counter()
    report = _quiet(argv)
    elapsed = time.perf_counter() - started
    first = expected.setdefault(kind, report)
    _check(report == first, f"{kind} eval report differs from the first repeat")
    _check(f'"users": {len(state.split.test)}' in report, f"{kind} eval report user count")
    return elapsed


def op_recommend(state: State, index: int, expected: dict) -> float:
    history = state.requests[index]
    argv = ["recommend", "--checkpoint", state.checkpoints["svae"], "--history", history,
            "--top-n", str(TOP_N)]
    started = time.perf_counter()
    text = _quiet(argv)
    elapsed = time.perf_counter() - started
    first = expected.setdefault(index, text)
    _check(text == first, f"recommend request {index} differs from the first repeat")
    rows = [line.split("\t") for line in text.splitlines()]
    _check(len(rows) == TOP_N, f"recommend request {index}: {len(rows)} rows")
    scores = [float(score) for _, score in rows]
    _check(all(math.isfinite(s) for s in scores), "non-finite recommend score")
    _check(scores == sorted(scores, reverse=True), "recommend scores out of order")
    _check(not set(history.split(",")) & {item for item, _ in rows},
           "recommend returned an item from the history")
    return elapsed


# Runs `vaerec prepare` and reports the peak RSS of its own address space.
# A child's rusage would not do: on exec the kernel carries the parent's
# peak into the child's ru_maxrss.
_PEAK_PROBE = (
    "import sys\n"
    "from vaerec.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stderr.write(open('/proc/self/status').read())\n"
    "sys.exit(code)\n"
)


def vm_hwm_mb(status: str) -> float:
    """Peak resident set size from a /proc/<pid>/status text, in MiB."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailed("no VmHWM line in process status")


def self_peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="utf-8") as fh:
        return vm_hwm_mb(fh.read())


def prepare_peak_rss_mb(wl: Workload, state: State, root: str, out: str) -> float:
    """Peak RSS of one ``vaerec prepare`` on the workload's log, run in a
    child interpreter because a process cannot reset its own peak."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-c", _PEAK_PROBE] + _prepare_argv(state.log, out)
    with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as child:
        try:
            _, status = child.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
    _check(child.returncode == 0, f"prepare child exited with {child.returncode}")
    _check(split_digest(out) == state.split_digest, "prepare child wrote a different split")
    return vm_hwm_mb(status)


def validation_ndcg100(rank, state: State) -> float:
    """NDCG@100 on the whole validation fold; train() validates on a slice."""
    return evaluate(rank, state.split.validation, n_values=(100,)).metrics["NDCG@100"]


# ---------------------------------------------------------------------------
# runs


def _p95(values: list) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def round_operations(wl: Workload, state: State, work: str, tally: Tally) -> list:
    """The operations of one round. Each counts its attempt and records its
    samples in ``tally``. A garbage collection runs before each operation
    but the requests, which run back to back after one: an operation then
    pays for the collections its own allocations cause, at the same points
    in every round and every run, and not for those of the operation before
    it. Without this, one ~30 ms full collection fell inside or outside
    rvae's timed epoch depending on the run."""
    losses: dict = {}
    reports: dict = {}
    answers: dict = {}

    def train(kind):
        epoch_s, _ = op_train(wl, state, kind, ROUND_EPOCHS, work, losses)
        for value in epoch_s:
            tally.add(f"{kind}.epoch_s", value)

    partial = functools.partial
    operations = [partial(tally.run, f"train {kind}", partial(train, kind))
                  for kind in MODEL_KINDS]
    operations.append(partial(tally.sample, "prepare_s", "prepare", partial(
        op_prepare, wl, state, os.path.join(work, "prepare-out"))))
    operations += [partial(tally.sample, f"{kind}.eval_s", f"eval {kind}", partial(
        op_eval, state, kind, reports)) for kind in MODEL_KINDS]
    operations = [step for operation in operations for step in (gc.collect, operation)]
    operations.append(gc.collect)
    operations += [partial(tally.sample, "recommend_ms", f"recommend {index}",
                           partial(op_recommend, state, index, answers), scale=1000.0)
                   for index in range(len(state.requests))]
    return operations


def op_setup(wl: Workload, seed: int, work: str, state: State) -> float:
    """Set up again into ``work``; it must give the same split and requests."""
    started = time.perf_counter()
    again = setup(wl, seed, work)
    elapsed = time.perf_counter() - started
    _check(again.split_digest == state.split_digest and again.requests == state.requests,
           "set-up gave another split")
    return elapsed


def _pin(cpus: list, round_number: int) -> None:
    """Run the next round on the next usable CPU."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[round_number % len(cpus)]})


def quality(wl: Workload, state: State, tally: Tally) -> None:
    """``val_ndcg100``: the NDCG@100, on the whole validation fold, of the
    svae that a ``wl.quality_epochs``-epoch train() on the first
    ``wl.quality_users`` training users selects; on workloads with
    ``quality_gate`` it must beat the popularity ranker fitted to the same
    users."""
    split = state.split
    train_split = dp.DatasetSplit(split.train[: wl.quality_users],
                                  split.validation[: wl.val_users], [],
                                  split.vocabulary, split.fold_ratio)
    config = model_config(wl, epochs=wl.quality_epochs, seed=MODEL_SEEDS["svae"])
    model, curve = training.train("svae", train_split, config)
    _check(all(math.isfinite(stats.train_loss) for stats in curve),
           "svae: non-finite training loss")
    ndcg = validation_ndcg100(model.rank, state)
    tally.add("val_ndcg100", ndcg)
    if wl.quality_gate:
        popularity = PopularityRanker(train_split.train, split.n_items)
        pop = validation_ndcg100(popularity.rank, state)
        _check(ndcg > pop, f"svae val NDCG@100 {ndcg:.4f} <= popularity {pop:.4f}")


def timed_run(wl: Workload, seed: int, seconds: float, root: str, work: str):
    """End-to-end metrics, untraced. Returns (metrics, tally)."""
    tally = Tally()
    started = time.perf_counter()
    state = setup(wl, seed, work)
    tally.add("setup_s", time.perf_counter() - started)

    operations = round_operations(wl, state, work, tally)
    # set-up repeats every other round, into a directory of its own, so that
    # its median spans the run as the other samples do
    repeat_setup = functools.partial(tally.sample, "setup_s", "setup", functools.partial(
        op_setup, wl, seed, os.path.join(work, "setup-repeat"), state))
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    rounds = 0
    try:
        # counts rounds, not samples, so a run whose operations fail still ends
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            _pin(cpus, rounds)
            for operation in operations:
                operation()
            if rounds % 2 == 0:
                gc.collect()
                repeat_setup()
            rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)

    tally.run("quality", functools.partial(quality, wl, state, tally))
    tally.sample("prepare_peak_rss_mb", "prepare peak rss", functools.partial(
        prepare_peak_rss_mb, wl, state, root, os.path.join(work, "prepare-child")))

    summary = tally.summary
    metrics = {
        "setup_s": (summary("setup_s"), "s"),
        "prepare_s": (summary("prepare_s"), "s"),
        "prepare_peak_rss_mb": (summary("prepare_peak_rss_mb"), "MiB"),
    }
    for kind in MODEL_KINDS:
        metrics[f"{kind}.epoch_s"] = (summary(f"{kind}.epoch_s"), "s")
    for kind in MODEL_KINDS:
        metrics[f"{kind}.eval_s"] = (summary(f"{kind}.eval_s"), "s")
    metrics["recommend_p50_ms"] = (summary("recommend_ms"), "ms")
    metrics["recommend_p95_ms"] = (summary("recommend_ms", _p95), "ms")
    metrics["val_ndcg100"] = (summary("val_ndcg100"), "ratio")
    metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MiB")
    return metrics, tally


def trace_steps(wl: Workload, state: State, work: str) -> list:
    """The fixed plan of a traced run, as (run id, operation) pairs."""
    reports: dict = {}
    answers: dict = {}
    steps = [(f"train-{kind}", functools.partial(op_train, wl, state, kind,
                                                  TRACE_EPOCHS, work))
             for kind in MODEL_KINDS]
    steps.append(("prepare", functools.partial(op_prepare, wl, state,
                                               os.path.join(work, "prepare-out"))))
    steps += [(f"eval-{kind}", functools.partial(op_eval, state, kind, reports))
              for kind in MODEL_KINDS]
    steps += [(f"recommend-{index}", functools.partial(op_recommend, state, index, answers))
              for index in range(len(state.requests))]
    return steps


def traced_run(wl: Workload, seed: int, work: str):
    """Per-layer metrics from one traced pass of the fixed plan, plus the
    tracing overhead. Each step runs twice, untraced and traced, the order
    alternating from step to step so that drift and warm-up cancel; both
    runs of a step must give the same output. Returns (metrics, tally,
    tracer)."""
    tally = Tally()
    state = setup(wl, seed, work)
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    for number, (run, operation) in enumerate(trace_steps(wl, state, work)):
        for traced in ((False, True) if number % 2 == 0 else (True, False)):
            started = time.perf_counter()
            if traced:
                tracer.run = run
                with tracer:
                    tally.run(run, operation)
            else:
                tally.run(run, operation)
            wall[traced] += time.perf_counter() - started
    tracer.run = None
    return layer_metrics(tracer, wall[False], wall[True]), tally, tracer


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    t, calls, counts = tracer.total, tracer.calls, tracer.counts
    backward_calls = calls("autodiff.tape_backward")
    passes = calls("training.train_pass")
    steps_in_passes = tracer.calls_within("autodiff.adam_step", "training.train_pass")
    m = {
        "autodiff.gru_cell_s": (t("autodiff.gru_cell"), "s"),
        "autodiff.gru_cell_calls": (calls("autodiff.gru_cell"), "count"),
        "autodiff.tape_backward_s": (t("autodiff.tape_backward"), "s"),
        "autodiff.tape_records_per_step": (
            counts["autodiff.tape_backward.args"] / max(backward_calls, 1), "count"),
        "autodiff.adam_step_s": (t("autodiff.adam_step"), "s"),
        "autodiff.adam_steps": (calls("autodiff.adam_step"), "count"),
        "autodiff.snapshot_s": (t("autodiff.snapshot"), "s"),
        "autodiff.log_softmax_s": (t("autodiff.log_softmax"), "s"),
        "autodiff.embedding_lookup_s": (t("autodiff.embedding_lookup"), "s"),
        "training.train_pass_s": (t("training.train_pass"), "s"),
        "training.validate_s": (t("training.validate"), "s"),
        "training.steps_per_epoch": (steps_in_passes / max(passes, 1), "count"),
        "models.loss_s": (t("models.loss"), "s"),
        "models.scores_s": (t("models.scores"), "s"),
        "models.scores_calls": (calls("models.scores"), "count"),
        "models.rank_s": (t("models.rank"), "s"),
        "models.build_s": (t("models.build"), "s"),
        "evaluation.rank_s": (t("evaluation.rank"), "s"),
        "evaluation.metrics_s": (t("evaluation.metrics"), "s"),
        "evaluation.users": (counts["evaluation.evaluate.result"]
                             + counts["training.validate.result"], "count"),
        "checkpoint.load_s": (t("checkpoint.load"), "s"),
        "checkpoint.save_s": (t("checkpoint.save"), "s"),
        "data.ingest_s": (t("data.ingest"), "s"),
        "data.binarize_s": (t("data.binarize"), "s"),
        "data.build_sequences_s": (t("data.build_sequences"), "s"),
        "data.split_s": (t("data.split"), "s"),
        "data.save_split_s": (t("data.save_split"), "s"),
        "data.load_split_s": (t("data.load_split"), "s"),
        "data.rows_in": (counts["data.ingest.result"], "count"),
        "data.events_kept": (counts["data.binarize.result"], "count"),
    }
    for command in ("prepare", "eval", "recommend"):
        m[f"cli.{command}.self_s"] = (tracer.self_time(f"cli.{command}"), "s")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
