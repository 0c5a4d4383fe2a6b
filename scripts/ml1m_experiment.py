#!/usr/bin/env python3
"""Optional end-to-end run on the MovieLens-1M ratings file.

Downloads are out of scope: point --ratings at an existing ml-1m
ratings.dat ("user::item::rating::timestamp"). The run binarizes at
rating > 3, keeps users with at least five interactions, subsamples users
by history-length strata to keep desk-scale runtimes, trains SVAE and MVAE,
and reports NDCG@100 against the POP baseline on the test fold-out. The
expected outcome is the ordering svae >= mvae >= pop.

This is a long-running experiment (tens of minutes at the default
subsample; hours at full scale with full-size architecture) and is not part
of the CI gate.
"""

import argparse
import json
import sys

from vaerec.data import PipelineConfig, run_pipeline
from vaerec.evaluation import PopularityRanker, batch_rank_fn, evaluate
from vaerec.models import ModelConfig
from vaerec.models.training import train


def ndcg100_on_test(ranker, split):
    """NDCG@100 on the test fold, every user ranked from one batch of scores."""
    rank_fn = batch_rank_fn(ranker, split.test, 100)
    return evaluate(rank_fn, split.test, n_values=(100,)).metrics["NDCG@100"]


def run_ml1m(ratings_path, subsample_users=1000, epochs=8, seed=0,
             full_architecture=False, progress=print):
    pipeline = PipelineConfig(
        delimiter="::",
        subsample_users=subsample_users,
        seed=seed,
    )
    split = run_pipeline(ratings_path, pipeline)
    progress(f"split: {len(split.train)} train / {len(split.validation)} val / "
             f"{len(split.test)} test users, {split.n_items} items")
    if full_architecture:
        config = ModelConfig(epochs=epochs, seed=seed)
    else:
        config = ModelConfig(
            latent_dim=16, item_embedding_dim=64, gru_hidden=64,
            encoder_widths=(64,), decoder_widths=(64,),
            k_horizon=4, learning_rate=1e-3, weight_decay=0.01,
            kl_anneal_epochs=4, epochs=epochs, seed=seed,
        )
    results = {}
    svae, _ = train("svae", split, config,
                    callback=lambda s: progress(
                        f"svae epoch {s.epoch}: loss={s.train_loss:.3f} "
                        f"val={s.val_ndcg100:.4f} ({s.seconds:.0f}s)"))
    results["svae"] = ndcg100_on_test(svae, split)
    mvae, _ = train("mvae", split, config,
                    callback=lambda s: progress(
                        f"mvae epoch {s.epoch}: loss={s.train_loss:.3f} "
                        f"val={s.val_ndcg100:.4f}"))
    results["mvae"] = ndcg100_on_test(mvae, split)
    pop = PopularityRanker(split.train, split.n_items)
    results["pop"] = ndcg100_on_test(pop, split)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ratings", required=True, help="path to ml-1m ratings.dat")
    parser.add_argument("--subsample-users", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--full-architecture", action="store_true",
                        help="use the full-size reference architecture")
    args = parser.parse_args()
    results = run_ml1m(args.ratings, args.subsample_users, args.epochs,
                       args.seed, args.full_architecture)
    print(json.dumps(results, indent=2, sort_keys=True))
    ok = results["svae"] >= results["mvae"] >= results["pop"]
    print(f"ordering svae >= mvae >= pop: {'holds' if ok else 'violated'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
