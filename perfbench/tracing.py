"""In-memory spans around calls into vaerec's public functions.

The tracer replaces module attributes and class methods with wrappers for
the length of a ``with`` block and puts the originals back on exit. A name
that other modules import by value (``from vaerec.x import f``) is patched in
every module that holds it, so a call is timed whichever module makes it.
Nothing inside ``src/`` is changed.

Each span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span (or None) and ``run`` is the benchmark operation the span
belongs to. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter


def _get(owner, attr: str):
    if isinstance(owner, dict):
        return owner[attr]
    # a class's own entry, so a method is rebound on each call as before
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _users(report) -> int:
    return report.users


def _tape_records(args) -> int:
    return len(args[0])


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None, on_args=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.run]
            spans.append(record)
            stack.append(index)
            counts[name + ".calls"] += 1
            if on_args is not None:
                counts[name + ".args"] += on_args(args)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                counts[name + ".result"] += on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a wrapper."""
        original = _get(owner, attr)
        self._patched.append((owner, attr, original))
        _set(owner, attr, self.wrap(name, original, **hooks))

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            _set(owner, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def total(self, name: str) -> float:
        """Seconds inside spans called ``name``, not counting a span nested
        in another span of the same name twice."""
        out = 0.0
        for record in self.spans:
            if record[0] == name and not self._inside(record[3], name):
                out += record[2] - record[1]
        return out

    def self_time(self, name: str) -> float:
        """Seconds inside ``name`` spans minus what their child spans cover."""
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record[3] is not None:
                child[record[3]] += record[2] - record[1]
        return sum(
            (r[2] - r[1]) - child[i] for i, r in enumerate(self.spans) if r[0] == name
        )

    def calls(self, name: str) -> int:
        return self.counts[name + ".calls"]

    def calls_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that run inside an ``ancestor`` span."""
        return sum(1 for r in self.spans if r[0] == name and self._inside(r[3], ancestor))

    def _inside(self, parent, name: str) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                ) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every traced public function; span names are ``layer.function``."""
    mod = importlib.import_module
    ad = mod("vaerec.autodiff")
    data = mod("vaerec.data")
    evaluation = mod("vaerec.evaluation")
    models = mod("vaerec.models")
    checkpoint = mod("vaerec.models.checkpoint")
    training = mod("vaerec.models.training")
    cli = mod("vaerec.cli")
    model_modules = [mod(f"vaerec.models.{kind}") for kind in ("svae", "mvae", "rvae")]
    model_classes = [models.SequentialVAE, models.MultinomialVAE, models.PairwiseRankingVAE]

    p = tracer.patch
    p(ad, "gru_cell", "autodiff.gru_cell")
    p(ad, "log_softmax", "autodiff.log_softmax")
    p(ad, "embedding_lookup", "autodiff.embedding_lookup")
    p(ad.Tape, "backward", "autodiff.tape_backward", on_args=_tape_records)
    p(ad.ParameterStore, "adam_step", "autodiff.adam_step")
    p(ad.ParameterStore, "snapshot", "autodiff.snapshot")

    for module in (training, cli):
        p(module, "train", "training.train")
    # train() dispatches through this table, so the pass is traced there
    for kind in list(training._EPOCH_FNS):
        p(training._EPOCH_FNS, kind, "training.train_pass")
    p(training, "evaluate", "training.validate", on_result=_users)

    for cls in model_classes:
        p(cls, "pair_loss" if cls is models.PairwiseRankingVAE else "loss", "models.loss")
        p(cls, "scores", "models.scores")
        p(cls, "rank", "evaluation.rank")
    p(evaluation.PopularityRanker, "rank", "evaluation.rank")
    for module in [mod("vaerec.models.components")] + model_modules:
        p(module, "rank_items", "models.rank")
    for module in (models, checkpoint, training):
        p(module, "build_model", "models.build")

    for module in (evaluation, cli):
        p(module, "evaluate", "evaluation.evaluate", on_result=_users)
    for fn in ("ndcg_at_n", "precision_at_n", "recall_at_n"):
        p(evaluation, fn, "evaluation.metrics")

    for module in (checkpoint, cli):
        p(module, "load_checkpoint", "checkpoint.load")
        p(module, "save_checkpoint", "checkpoint.save")

    p(data, "ingest", "data.ingest", on_result=len)
    p(data, "binarize", "data.binarize", on_result=len)
    p(data, "build_sequences", "data.build_sequences")
    p(data, "split_users", "data.split")
    p(data, "save_split", "data.save_split")
    p(data, "load_split", "data.load_split")

    for command in ("prepare", "train", "eval", "recommend"):
        p(cli, f"cmd_{command}", f"cli.{command}")
