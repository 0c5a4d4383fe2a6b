"""Command-line orchestration: prepare | train | eval | recommend.

Every command writes a manifest carrying the merged run configuration, the
seed, and input digests, so any artifact can be reproduced from its manifest
alone. Plot-style outputs (learning curves, history-length sweeps) are
emitted as CSV; rendering is left to external tooling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from vaerec import data as dp
from vaerec.evaluation import (
    PopularityRanker,
    batch_rank_fn,
    evaluate,
    ndcg_by_history_length,
)
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


def merged_options(args: argparse.Namespace, cli_keys: list[str]) -> dict:
    """Config-file values overridden by explicitly passed CLI flags."""
    options = dict(read_config_file(args.config)) if args.config else {}
    for key in cli_keys:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    if args.seed is not None:
        options["seed"] = args.seed
    return options


def config_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = [float(x) for x in str(text).split(",")]
    if len(parts) != 3:
        raise CliError(f"fractions need three comma-separated values, got {text!r}")
    return parts[0], parts[1], parts[2]


def _parse_int_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(x) for x in text)
    return tuple(int(x) for x in str(text).split(",") if x.strip())


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args: argparse.Namespace) -> int:
    options = merged_options(
        args,
        ["delimiter", "binarize_threshold", "min_history", "fractions",
         "fold_ratio", "subsample_users", "strata_edges"],
    )
    cfg = dp.PipelineConfig(
        delimiter=str(options.get("delimiter", ",")),
        binarize_threshold=float(options.get("binarize_threshold", 3.0)),
        min_history=int(options.get("min_history", 5)),
        fractions=_parse_fractions(options.get("fractions", "0.8,0.1,0.1")),
        fold_ratio=float(options.get("fold_ratio", 0.8)),
        subsample_users=(
            int(options["subsample_users"]) if options.get("subsample_users") else None
        ),
        strata_edges=(
            _parse_int_list(options["strata_edges"]) if options.get("strata_edges") else None
        ),
        seed=int(options.get("seed", 0)),
    )
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
    split, split_manifest = dp.load_split(args.split_dir)
    options = merged_options(args, ["epochs", "learning_rate", "k_horizon",
                                    "likelihood_mode", "kl_weight"])
    model_config = ModelConfig.from_mapping(options)
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
    with open(curve_path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    os.replace(curve_path + ".tmp", curve_path)
    run_config = {
        "command": "train",
        "model": args.model,
        "config": model_config.to_dict(),
        "split_dir": str(args.split_dir),
        "vocabulary_digest": split.vocabulary.digest(),
        "split_manifest_seed": split_manifest.get("seed"),
    }
    run_config["config_digest"] = config_digest(run_config["config"])
    write_json(os.path.join(args.out, "run.json"), run_config)
    print(f"checkpoint written to {base}.json / {base}.params")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args: argparse.Namespace) -> int:
    # checked before any file is opened, so the value never becomes a path
    if args.split not in dp.HELDOUT_FOLDS:
        raise CliError(f"unknown split part {args.split!r}; expected validation or test")
    n_values = _parse_int_list(args.n)
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
    rank_fn = batch_rank_fn(ranker, heldout)
    report = evaluate(rank_fn, heldout, n_values=n_values, idcg_cap_at_n=args.idcg_cap)
    report.model = model_name
    report.config_digest = digest
    text = report.to_json()
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "report.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)
        write_json(os.path.join(args.out, "run.json"), {
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
        rows = ndcg_by_history_length(rank_fn, heldout)
        lines = ["low,high,users,ndcg100"]
        for row in rows:
            high = "" if row["high"] is None else row["high"]
            value = "" if row["ndcg100"] is None else repr(row["ndcg100"])
            lines.append(f"{row['low']},{high},{row['users']},{value}")
        with open(args.by_history_length + ".tmp", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(args.by_history_length + ".tmp", args.by_history_length)
    return 0


# ---------------------------------------------------------------------------
# recommend


def cmd_recommend(args: argparse.Namespace) -> int:
    if args.top_n < 1:
        raise CliError(f"--top-n must be at least 1, got {args.top_n}")
    model, manifest = load_checkpoint(args.checkpoint)
    vocab = dp.Vocabulary(manifest["vocabulary"])
    history = [h for h in str(args.history).split(",") if h]
    known = set(vocab.raw_ids())
    unknown = [h for h in history if h not in known]
    if unknown:
        raise CliError(f"unknown item ids: {', '.join(unknown)}")
    fold_in = [vocab.to_index(h) for h in history]
    scores = model.scores(fold_in)
    ranked = components.rank_items(scores, set(fold_in))
    for item in ranked[: args.top_n]:
        print(f"{vocab.to_raw(int(item))}\t{scores[int(item)]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaerec",
        description="Sequence recommenders built on variational autoencoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("prepare", help="build a dataset split from a ratings log")
    common(p)
    p.add_argument("ratings", help="delimited (user, item, rating, timestamp) file")
    p.add_argument("--out", required=True, help="output split directory")
    p.add_argument("--delimiter", default=None, help='field delimiter ("," or "::")')
    p.add_argument("--binarize-threshold", dest="binarize_threshold", type=float, default=None)
    p.add_argument("--min-history", dest="min_history", type=int, default=None)
    p.add_argument("--fractions", default=None, help="train,val,test fractions")
    p.add_argument("--fold-ratio", dest="fold_ratio", type=float, default=None)
    p.add_argument("--subsample-users", dest="subsample_users", type=int, default=None)
    p.add_argument("--strata-edges", dest="strata_edges", default=None)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared split")
    common(p)
    p.add_argument("split_dir")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--k-horizon", dest="k_horizon", type=int, default=None)
    p.add_argument("--likelihood-mode", dest="likelihood_mode", default=None)
    p.add_argument("--kl-weight", dest="kl_weight", type=float, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint or the POP baseline")
    common(p)
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

    p = sub.add_parser("recommend", help="rank items for an ad-hoc history")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--history", required=True, help="comma-separated raw item ids")
    p.add_argument("--top-n", dest="top_n", type=int, default=10)
    p.set_defaults(fn=cmd_recommend)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, TrainingError, dp.ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
