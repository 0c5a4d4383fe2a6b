"""Command-line orchestration: prepare | train | eval | recommend.

Every command writes a manifest carrying the merged run configuration, the
seed, and input digests, so any artifact can be reproduced from its manifest
alone. Plot-style outputs (learning curves, history-length sweeps) are
emitted as CSV; rendering is left to external tooling.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import sys

from vaerec import data as dp
from vaerec.evaluation import PopularityRanker, batch_rank_fn, evaluate
from vaerec.models import MODEL_KINDS, ModelConfig, components
from vaerec.models.checkpoint import load_checkpoint, save_checkpoint
from vaerec.models.training import TrainingError, train


class CliError(RuntimeError):
    pass


def read_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def merged_options(args: argparse.Namespace, config_cls: type) -> dict:
    """Config-file values overridden by explicitly passed CLI flags, for the
    fields of the dataclass ``config_cls``."""
    options = dict(read_config_file(args.config)) if args.config else {}
    for f in dataclasses.fields(config_cls):
        value = getattr(args, f.name, None)
        if value is not None:
            options[f.name] = value
    return options


def config_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args: argparse.Namespace) -> int:
    cfg = dp.PipelineConfig.from_mapping(merged_options(args, dp.PipelineConfig))
    split = dp.run_pipeline(args.ratings, cfg)
    source_digest = dp.file_digest(args.ratings)
    dp.save_split(split, args.out, cfg.to_dict(), cfg.seed, source_digest)
    counts = dp.split_counts(split)
    print(f"users: {counts['users']}")
    print(f"items: {counts['items']}")
    print(f"interactions: {counts['interactions']}")
    print(f"average length: {counts['average_length']}")
    print(f"train users: {counts['train_users']}")
    print(f"heldout validation users: {counts['validation_users']}")
    print(f"heldout test users: {counts['test_users']}")
    print(f"split written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args: argparse.Namespace) -> int:
    model_config = ModelConfig.from_mapping(merged_options(args, ModelConfig))
    split, split_manifest = dp.load_split(args.split_dir)
    os.makedirs(args.out, exist_ok=True)
    curve_path = os.path.join(args.out, "curve.csv")
    rows = ["epoch,train_loss,val_ndcg100,seconds"]

    def on_epoch(stats):
        rows.append(
            f"{stats.epoch},{stats.train_loss!r},{stats.val_ndcg100!r},{stats.seconds:.3f}"
        )
        print(
            f"epoch {stats.epoch}: train_loss={stats.train_loss:.5f} "
            f"val_ndcg100={stats.val_ndcg100:.5f} ({stats.seconds:.1f}s)"
        )

    model, curve = train(args.model, split, model_config, callback=on_epoch)
    best = max(curve, key=lambda s: s.val_ndcg100) if curve else None
    base = os.path.join(args.out, "checkpoint")
    save_checkpoint(
        base,
        model,
        split.vocabulary.raw_ids(),
        split.vocabulary.digest(),
        epoch=best.epoch if best else 0,
        validation_score=best.val_ndcg100 if best else None,
    )
    dp.write_atomic(curve_path, "\n".join(rows) + "\n")
    run_config = {
        "command": "train",
        "model": args.model,
        "config": model_config.to_dict(),
        "split_dir": str(args.split_dir),
        "vocabulary_digest": split.vocabulary.digest(),
        "split_manifest_seed": split_manifest.get("seed"),
    }
    run_config["config_digest"] = config_digest(run_config["config"])
    dp.write_json(os.path.join(args.out, "run.json"), run_config)
    print(f"checkpoint written to {base}.json / {base}.params")
    return 0


# ---------------------------------------------------------------------------
# eval


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    """The comma-separated ``--n`` cutoffs, blank pieces skipped; each must
    be an integer of at least 1."""
    cutoffs = []
    for piece in filter(str.strip, text.split(",")):
        try:
            n = int(piece)
        except ValueError:
            raise CliError(f"--n takes integers, got {piece.strip()!r}") from None
        if n < 1:
            raise CliError(f"--n cutoffs must be at least 1, got {n}")
        cutoffs.append(n)
    return tuple(cutoffs)


def cmd_eval(args: argparse.Namespace) -> int:
    # checked before any file is opened, so the value never becomes a path
    if args.split not in dp.HELDOUT_FOLDS:
        raise CliError(f"unknown split part {args.split!r}; expected validation or test")
    n_values = _parse_cutoffs(args.n)
    if args.pop:
        split, _ = dp.load_split(args.split_dir)
        heldout = getattr(split, args.split)
        vocabulary = split.vocabulary
        ranker = PopularityRanker(split.train, split.n_items)
        model_name = "pop"
        digest = config_digest({"model": "pop"})
    else:
        if not args.checkpoint:
            raise CliError("either --checkpoint or --pop is required")
        heldout, vocabulary, _ = dp.load_heldout(args.split_dir, args.split)
        model, manifest = load_checkpoint(args.checkpoint)
        if manifest["n_items"] != len(vocabulary):
            raise CliError(
                f"catalog mismatch: checkpoint has {manifest['n_items']} items, "
                f"split has {len(vocabulary)}"
            )
        if manifest["vocabulary_digest"] != vocabulary.digest():
            raise CliError("vocabulary digest mismatch between checkpoint and split")
        ranker = model
        model_name = manifest["model"]
        digest = config_digest(manifest["config"])
    # rank only the head the report reads; the history series reads NDCG@100
    history_n = (100,) if args.by_history_length else ()
    rank_fn = batch_rank_fn(ranker, heldout, max(n_values + history_n, default=None))
    report = evaluate(rank_fn, heldout, n_values=n_values, idcg_cap_at_n=args.idcg_cap,
                      by_history_length=bool(args.by_history_length))
    report.model = model_name
    report.config_digest = digest
    text = report.to_json()
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        dp.write_atomic(os.path.join(args.out, "report.json"), text)
        dp.write_json(os.path.join(args.out, "run.json"), {
            "command": "eval",
            "model": model_name,
            "config_digest": digest,
            "split_dir": str(args.split_dir),
            "split": args.split,
            "n_values": list(n_values),
            "idcg_cap_at_n": bool(args.idcg_cap),
            "vocabulary_digest": vocabulary.digest(),
            "checkpoint": str(args.checkpoint) if args.checkpoint else None,
        })
    if args.by_history_length:
        lines = ["low,high,users,ndcg100"]
        for row in report.history:
            high = "" if row["high"] is None else row["high"]
            value = "" if row["ndcg100"] is None else repr(row["ndcg100"])
            lines.append(f"{row['low']},{high},{row['users']},{value}")
        dp.write_atomic(args.by_history_length, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# recommend


def cmd_recommend(args: argparse.Namespace) -> int:
    if args.top_n < 1:
        raise CliError(f"--top-n must be at least 1, got {args.top_n}")
    model, manifest = load_checkpoint(args.checkpoint)
    vocab = dp.Vocabulary(manifest["vocabulary"])
    history = [h for h in str(args.history).split(",") if h]
    unknown = [h for h in history if h not in vocab]
    if unknown:
        raise CliError(f"unknown item ids: {', '.join(unknown)}")
    fold_in = [vocab.to_index(h) for h in history]
    scores = model.scores(fold_in)
    for item in components.rank_items(scores, set(fold_in), args.top_n):
        print(f"{vocab.to_raw(int(item))}\t{scores[int(item)]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


# flags that set a config field stay text, so the field's type parses them
# exactly as it parses the same key in a --config file
def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", default=None)


def _add_prepare(sub) -> None:
    p = sub.add_parser("prepare", help="build a dataset split from a ratings log")
    _common(p)
    p.add_argument("ratings", help="delimited (user, item, rating, timestamp) file")
    p.add_argument("--out", required=True, help="output split directory")
    p.add_argument("--delimiter", default=None, help='field delimiter ("," or "::")')
    p.add_argument("--binarize-threshold", dest="binarize_threshold", default=None)
    p.add_argument("--min-history", dest="min_history", default=None)
    p.add_argument("--fractions", default=None, help="train,val,test fractions")
    p.add_argument("--fold-ratio", dest="fold_ratio", default=None)
    p.add_argument("--subsample-users", dest="subsample_users", default=None)
    p.add_argument("--strata-edges", dest="strata_edges", default=None)
    p.set_defaults(fn=cmd_prepare)


def _add_train(sub) -> None:
    p = sub.add_parser("train", help="train a model on a prepared split")
    _common(p)
    p.add_argument("split_dir")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", default=None)
    p.add_argument("--learning-rate", dest="learning_rate", default=None)
    p.add_argument("--k-horizon", dest="k_horizon", default=None)
    p.add_argument("--likelihood-mode", dest="likelihood_mode", default=None)
    p.add_argument("--kl-weight", dest="kl_weight", default=None)
    p.set_defaults(fn=cmd_train)


def _add_eval(sub) -> None:
    p = sub.add_parser("eval", help="score a checkpoint or the POP baseline")
    p.add_argument("--checkpoint", help="checkpoint base path (no extension)")
    p.add_argument("--pop", action="store_true", help="evaluate the popularity baseline")
    p.add_argument("--split-dir", dest="split_dir", required=True)
    p.add_argument("--split", default="test", help="validation or test")
    p.add_argument("--n", default="10,100", help="comma-separated cutoffs")
    p.add_argument("--idcg-cap", dest="idcg_cap", action="store_true",
                   help="cap the ideal DCG at n instead of |relevant|")
    p.add_argument("--out", default=None, help="directory for report.json")
    p.add_argument("--by-history-length", dest="by_history_length", default=None,
                   help="CSV path for the per-bucket NDCG@100 series")
    p.set_defaults(fn=cmd_eval)


def _add_recommend(sub) -> None:
    p = sub.add_parser("recommend", help="rank items for an ad-hoc history")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--history", required=True, help="comma-separated raw item ids")
    p.add_argument("--top-n", dest="top_n", type=int, default=10)
    p.set_defaults(fn=cmd_recommend)


_SUBCOMMANDS = {
    "prepare": _add_prepare,
    "train": _add_train,
    "eval": _add_eval,
    "recommend": _add_recommend,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or, when ``command`` names a subcommand, one that
    holds only that subcommand: it parses, helps and fails for that command
    exactly as the whole parser does, without building the other three."""
    # argparse makes a formatter per argument, and each one would read the
    # terminal width; it is read once here, by argparse's own rule
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="vaerec",
        description="Sequence recommenders built on variational autoencoders.",
        formatter_class=formatter,
    )
    whole = command not in _SUBCOMMANDS
    # one subcommand alone keeps the whole parser's usage line, which the
    # top level prints with its errors (unrecognized arguments)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if whole else "{" + ",".join(_SUBCOMMANDS) + "}",
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter),
    )
    for name in _SUBCOMMANDS if whole else [command]:
        _SUBCOMMANDS[name](sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, TrainingError, dp.ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
