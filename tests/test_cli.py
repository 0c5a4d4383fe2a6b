import argparse
import json
import os
import shutil
from collections import Counter

import numpy as np
import pytest

from vaerec import data as dp
from vaerec.cli import build_parser, config_digest, main, read_config_file
from vaerec.data import Vocabulary, load_split
from vaerec.evaluation import (
    HISTORY_BUCKETS,
    PopularityRanker,
    batch_rank_fn,
    evaluate,
)
from vaerec.models import MultinomialVAE, PairwiseRankingVAE, SequentialVAE, components
from vaerec.models.checkpoint import load_checkpoint


@pytest.fixture()
def ratings_file(tmp_path):
    """A small log whose users walk a 12-item cycle, all ratings 5."""
    rng = np.random.default_rng(0)
    path = tmp_path / "ratings.csv"
    rows = []
    for u in range(50):
        start = int(rng.integers(12))
        for t in range(8):
            rows.append(f"u{u},i{(start + t) % 12},5,{1000 + t}")
    path.write_text("\n".join(rows) + "\n")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def prepare(tmp_path, ratings_file, name="split", seed=3):
    out = tmp_path / name
    code = run_cli("prepare", ratings_file, "--out", out, "--seed", seed)
    assert code == 0
    return out


def train_tiny(tmp_path, split_dir, name="run", model="svae", epochs=1, seed=5):
    out = tmp_path / name
    code = run_cli(
        "train", split_dir, "--model", model, "--out", out,
        "--epochs", epochs, "--seed", seed,
        "--config", make_tiny_config(tmp_path),
    )
    assert code == 0
    return out


def make_tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    if not path.exists():
        path.write_text(
            "latent_dim=3\n"
            "item_embedding_dim=4\n"
            "gru_hidden=4\n"
            "encoder_widths=4\n"
            "decoder_widths=4\n"
            "rvae_embedding_dim=4\n"
            "rvae_encoder_widths=4\n"
            "k_horizon=2\n"
            "learning_rate=0.01\n"
            "batch_size=16\n"
        )
    return path


def test_config_file_parsing(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("a=1\n# comment\nb = two  # trailing\n\n")
    assert read_config_file(p) == {"a": "1", "b": "two"}


def test_prepare_prints_stats_and_writes_split(tmp_path, ratings_file, capsys):
    out = prepare(tmp_path, ratings_file)
    printed = capsys.readouterr().out
    for key in ("users:", "items:", "interactions:", "average length:",
                "heldout validation users:", "heldout test users:"):
        assert key in printed
    for name in ("train.tsv", "validation.tsv", "test.tsv", "vocabulary.tsv", "manifest.json"):
        assert (out / name).exists()


def test_prepare_empty_after_binarization(tmp_path, capsys):
    ratings = tmp_path / "low.csv"
    ratings.write_text("u1,i1,2,10\nu1,i2,1,11\n")
    code = run_cli("prepare", ratings, "--out", tmp_path / "s")
    assert code == 1
    assert "no interactions after binarization" in capsys.readouterr().err


def test_prepare_rejects_an_item_id_that_breaks_the_vocabulary(tmp_path, capsys):
    ratings = tmp_path / "tabs.csv"
    ratings.write_text("".join(f"u1,i\tx{k},5,{k}\n" for k in range(6)))
    code = run_cli("prepare", ratings, "--out", tmp_path / "s")
    assert code == 1
    assert "line 1: item id 'i\\tx0' contains a tab or line break" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_prepare_deterministic(tmp_path, ratings_file):
    a = prepare(tmp_path, ratings_file, name="a", seed=9)
    b = prepare(tmp_path, ratings_file, name="b", seed=9)
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# one non-default value per pipeline field; the delimiter case reads a
# ';'-separated copy of the log
PIPELINE_FLAGS = [
    ("delimiter", "--delimiter", ";"),
    ("binarize_threshold", "--binarize-threshold", "4.5"),
    ("min_history", "--min-history", "8"),
    ("fractions", "--fractions", "0.6,0.2,0.2"),
    ("fold_ratio", "--fold-ratio", "0.5"),
    ("subsample_users", "--subsample-users", "20"),
    ("strata_edges", "--strata-edges", "4,16"),
    ("seed", "--seed", "7"),
]


@pytest.mark.parametrize("field, flag, value", PIPELINE_FLAGS)
def test_prepare_flag_and_config_key_write_the_same_split(tmp_path, ratings_file, field, flag,
                                                          value):
    if field == "delimiter":
        ratings_file.write_text(ratings_file.read_text().replace(",", value))
    config = tmp_path / "pipeline.cfg"
    config.write_text(f"{field}={value}\n")
    assert run_cli("prepare", ratings_file, "--out", tmp_path / "flag", flag, value) == 0
    assert run_cli("prepare", ratings_file, "--out", tmp_path / "key", "--config", config) == 0
    manifest = json.loads((tmp_path / "flag" / "manifest.json").read_text())
    assert manifest["config"][field] != dp.PipelineConfig().to_dict()[field]
    for name in dp.SPLIT_FILES + ("vocabulary.tsv", "manifest.json"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()


@pytest.mark.parametrize("field, text", [
    ("subsample_users", "0"), ("subsample_users", "-3"), ("fold_ratio", "1.5"),
    ("fold_ratio", "nan"), ("min_history", "1"), ("fractions", "0.5,0.5"),
    ("strata_edges", ","), ("min_history", "2.5"), ("seed", "x"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_prepare_rejects_an_invalid_pipeline_value(tmp_path, ratings_file, capsys, field, text,
                                                   source):
    if source == "flag":
        argv = ["--" + field.replace("_", "-"), text]
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(f"{field}={text}\n")
        argv = ["--config", config]
    assert run_cli("prepare", ratings_file, "--out", tmp_path / "s", *argv) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_prepare_checks_fractions_before_it_opens_the_log(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert run_cli("prepare", missing, "--out", tmp_path / "s", "--fractions", "0.5,0.3,0.3") == 1
    err = capsys.readouterr().err
    assert "fractions must sum to 1" in err
    assert "missing.csv" not in err


@pytest.mark.parametrize("field, text", [("delimiter", ""), ("binarize_threshold", "nan")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_prepare_checks_delimiter_and_threshold_before_it_opens_the_log(tmp_path, capsys, field,
                                                                        text, source):
    if source == "flag":
        argv = ["--" + field.replace("_", "-"), text]
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(f"{field}={text}\n")
        argv = ["--config", config]
    missing = tmp_path / "missing.csv"
    assert run_cli("prepare", missing, "--out", tmp_path / "s", *argv) == 1
    err = capsys.readouterr().err
    assert field in err and "missing.csv" not in err
    assert not (tmp_path / "s").exists()


# flag or config key, field, text: each is an invalid model setting
INVALID_TRAIN = [
    ("--learning-rate", "learning_rate", "-1"),
    ("--learning-rate", "learning_rate", "nan"),
    ("--kl-weight", "kl_weight", "-0.5"),
    (None, "learning_rate", "0"),
    (None, "weight_decay", "-0.01"),
    (None, "weight_decay", "inf"),
    (None, "kl_weight", "nan"),
    (None, "kl_anneal_epochs", "-2"),
]


@pytest.mark.parametrize("flag, field, text", INVALID_TRAIN)
def test_train_rejects_an_invalid_model_value_before_it_reads_the_split(tmp_path, capsys, flag,
                                                                         field, text):
    if flag:
        argv = [flag, text]
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(f"{field}={text}\n")
        argv = ["--config", config]
    missing = tmp_path / "no-split"
    assert run_cli("train", missing, "--model", "mvae", "--out", tmp_path / "run", *argv) == 1
    err = capsys.readouterr().err
    assert field in err and "no-split" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--pop", "--split-dir", "s", "--seed", "3"],
    ["eval", "--pop", "--split-dir", "s", "--config", "c.cfg"],
    ["recommend", "--checkpoint", "c", "--history", "i1", "--seed", "3"],
    ["recommend", "--checkpoint", "c", "--history", "i1", "--config", "c.cfg"],
])
def test_eval_and_recommend_take_no_config_or_seed(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


COMMANDS = ("prepare", "train", "eval", "recommend")
# a complete invocation of each command, for its parse to reach the top level
PARSED = {
    "prepare": ["prepare", "r.csv", "--out", "o"],
    "train": ["train", "s", "--model", "svae", "--out", "o"],
    "eval": ["eval", "--split-dir", "s"],
    "recommend": ["recommend", "--checkpoint", "c", "--history", "i1"],
}


def exit_and_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    return exit_info.value.code, capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_helps_and_fails_as_the_whole_parser(command, capsys):
    alone, whole = build_parser(command), build_parser()
    assert alone.parse_args(PARSED[command]) == whole.parse_args(PARSED[command])
    outcomes = []
    for argv in ([command, "--help"], [command], PARSED[command] + ["--bogus-flag"]):
        outcomes.append(exit_and_output(alone.parse_args, argv, capsys))
        assert outcomes[-1] == exit_and_output(whole.parse_args, argv, capsys)
    assert outcomes[0][0] == 0 and f"usage: vaerec {command}" in outcomes[0][1].out
    assert outcomes[2][0] == 2
    assert outcomes[2][1].err.startswith(whole.format_usage())
    assert "unrecognized arguments: --bogus-flag" in outcomes[2][1].err
    # the other commands are not built
    other = next(name for name in COMMANDS if name != command)
    code, captured = exit_and_output(alone.parse_args, [other, "--help"], capsys)
    assert code == 2 and "invalid choice" in captured.err


@pytest.mark.parametrize("argv", [["bogus"], [], ["--seed", "3", "train"]])
def test_anything_but_a_command_gets_the_whole_parser(argv, capsys):
    code, captured = exit_and_output(main, argv, capsys)
    assert code == 2
    assert all(command in captured.err for command in COMMANDS)


def test_help_lists_every_command(capsys):
    code, captured = exit_and_output(main, ["--help"], capsys)
    assert code == 0
    assert all(command in captured.out for command in COMMANDS)


def argparse_help(parser, command):
    """The ``--help`` text of ``command`` (None: the top level) as argparse's
    own formatter renders it, reading the terminal width as it formats."""
    if command is not None:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command]
    parser.formatter_class = argparse.HelpFormatter
    return parser.format_help()


@pytest.mark.parametrize("columns", ["40", "80", "157"])
@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_help_is_argparse_rendering_at_a_fixed_width(command, columns, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    argv = ["--help"] if command is None else [command, "--help"]
    code, captured = exit_and_output(main, argv, capsys)
    assert code == 0
    assert captured.out == argparse_help(build_parser(command), command)


@pytest.mark.parametrize("command", (None,) + COMMANDS)
def test_a_parser_reads_the_terminal_width_once(command, monkeypatch):
    calls = []
    size = shutil.get_terminal_size

    def counting(*args, **kwargs):
        calls.append(1)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counting)
    build_parser(command).format_help()
    assert len(calls) == 1


def test_train_writes_curve_and_checkpoint(tmp_path, ratings_file):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split, epochs=2)
    curve = (run / "curve.csv").read_text().strip().splitlines()
    assert curve[0] == "epoch,train_loss,val_ndcg100,seconds"
    assert len(curve) == 3
    assert (run / "checkpoint.json").exists()
    assert (run / "checkpoint.params").exists()
    manifest = json.loads((run / "checkpoint.json").read_text())
    assert manifest["model"] == "svae"
    assert not any(name.endswith(".tmp") for name in os.listdir(run))


def test_train_zero_epochs(tmp_path, ratings_file):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split, name="zero", epochs=0)
    curve = (run / "curve.csv").read_text().strip().splitlines()
    assert curve == ["epoch,train_loss,val_ndcg100,seconds"]
    assert (run / "checkpoint.json").exists()


def test_eval_checkpoint_and_pop(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    code = run_cli(
        "eval", "--checkpoint", run / "checkpoint", "--split-dir", split,
        "--split", "test", "--out", tmp_path / "report",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["metrics"]) == {
        "NDCG@10", "NDCG@100", "Precision@10", "Precision@100",
        "Recall@10", "Recall@100",
    }
    assert (tmp_path / "report" / "report.json").exists()

    code = run_cli("eval", "--pop", "--split-dir", split)
    assert code == 0
    pop_payload = json.loads(capsys.readouterr().out)
    assert pop_payload["model"] == "pop"


def test_eval_by_history_length(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    csv_path = tmp_path / "buckets.csv"
    code = run_cli(
        "eval", "--pop", "--split-dir", split, "--by-history-length", csv_path
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "low,high,users,ndcg100"
    assert len(lines) == 6  # header + one row per bucket


@pytest.mark.parametrize("ratio", ["Infinity", "NaN", "5.0", "0", "-1"])
def test_eval_rejects_a_manifest_fold_ratio_outside_0_1(tmp_path, ratings_file, capsys, ratio):
    split = prepare(tmp_path, ratings_file)
    manifest = split / "manifest.json"
    text = manifest.read_text()
    assert '"fold_ratio": 0.8' in text
    manifest.write_text(text.replace('"fold_ratio": 0.8', f'"fold_ratio": {ratio}'))
    capsys.readouterr()
    assert run_cli("eval", "--pop", "--split-dir", split) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "manifest.json: fold_ratio is " in err
    assert "expected a number strictly between 0 and 1" in err


def test_eval_catalog_mismatch(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    other = tmp_path / "other.csv"
    rng = np.random.default_rng(1)
    rows = []
    for u in range(40):
        for t in range(7):
            rows.append(f"x{u},j{int(rng.integers(30))},5,{t}")
    other.write_text("\n".join(rows) + "\n")
    other_split = tmp_path / "other_split"
    assert run_cli("prepare", other, "--out", other_split) == 0
    capsys.readouterr()
    code = run_cli(
        "eval", "--checkpoint", run / "checkpoint", "--split-dir", other_split
    )
    assert code == 1
    assert "mismatch" in capsys.readouterr().err


def test_recommend(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    code = run_cli(
        "recommend", "--checkpoint", run / "checkpoint",
        "--history", "i0,i1", "--top-n", 3,
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    recommended = [line.split("\t")[0] for line in lines]
    assert "i0" not in recommended and "i1" not in recommended

    code = run_cli(
        "recommend", "--checkpoint", run / "checkpoint",
        "--history", "i0,zzz", "--top-n", 1,
    )
    assert code == 1
    assert "zzz" in capsys.readouterr().err


def test_recommend_top_n_is_the_head_of_the_whole_list(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    outputs = {}
    for top_n in (1, 4, 10, 12):
        argv = ["recommend", "--checkpoint", run / "checkpoint", "--history", "i0,i5"]
        assert run_cli(*argv, "--top-n", top_n) == 0
        outputs[top_n] = capsys.readouterr().out.splitlines()
    assert len(outputs[12]) == 10
    for top_n, lines in outputs.items():
        assert lines == outputs[12][:top_n]


def test_recommend_names_every_unknown_id(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    code = run_cli(
        "recommend", "--checkpoint", run / "checkpoint", "--history", "zzz,i0,i99",
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown item ids: zzz, i99\n"


def test_recommend_scores_history_once(tmp_path, ratings_file, capsys, monkeypatch):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    model, manifest = load_checkpoint(str(run / "checkpoint"))
    vocab = Vocabulary(manifest["vocabulary"])
    calls = []
    scores = SequentialVAE.scores

    def counting(self, fold_in):
        calls.append(list(fold_in))
        return scores(self, fold_in)

    monkeypatch.setattr(SequentialVAE, "scores", counting)
    for history in (["i0", "i1"], ["i3"], ["i5", "i2", "i9"]):
        calls.clear()
        capsys.readouterr()
        code = run_cli(
            "recommend", "--checkpoint", run / "checkpoint",
            "--history", ",".join(history), "--top-n", 4,
        )
        assert code == 0
        assert len(calls) == 1
        out = capsys.readouterr().out
        # same bytes as ranking the history through the model's own rank
        fold_in = [vocab.to_index(h) for h in history]
        want_scores = scores(model, fold_in)
        want = "".join(
            f"{vocab.to_raw(int(i))}\t{want_scores[int(i)]:.6f}\n"
            for i in model.rank(fold_in, set(fold_in))[:4]
        )
        assert out == want


def test_rvae_scores_catalog_once_per_epoch_and_per_eval(tmp_path, ratings_file, capsys,
                                                         monkeypatch):
    split = prepare(tmp_path, ratings_file)
    calls = []
    scores = PairwiseRankingVAE.scores

    def counting(self, fold_in):
        calls.append(list(fold_in))
        return scores(self, fold_in)

    monkeypatch.setattr(PairwiseRankingVAE, "scores", counting)
    run = train_tiny(tmp_path, split, model="rvae", epochs=3)
    assert len(calls) == 3
    calls.clear()
    capsys.readouterr()
    code = run_cli(
        "eval", "--checkpoint", run / "checkpoint", "--split-dir", split,
        "--by-history-length", tmp_path / "by_length.csv",
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["users"] > 1
    assert len(calls) == 1


@pytest.mark.parametrize("model", ["mvae", "svae"])
def test_eval_scores_fold_ins_in_blocks(tmp_path, ratings_file, capsys, monkeypatch, model):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split, model=model)
    cls = {"mvae": MultinomialVAE, "svae": SequentialVAE}[model]
    calls = []
    logits = cls.logits

    def counting(self, z):
        calls.append(z.shape[0])
        return logits(self, z)

    monkeypatch.setattr(cls, "logits", counting)
    capsys.readouterr()
    code = run_cli("eval", "--checkpoint", run / "checkpoint", "--split-dir", split)
    assert code == 0
    users = json.loads(capsys.readouterr().out)["users"]
    assert users > 1
    # every distinct fold-in of the fold decoded in one call
    assert calls == [len({u.fold_in for u in load_split(split)[0].test})]


def test_recommend_whole_catalog_excluded(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    manifest = json.loads((run / "checkpoint.json").read_text())
    whole = ",".join(manifest["vocabulary"])
    capsys.readouterr()
    code = run_cli(
        "recommend", "--checkpoint", run / "checkpoint", "--history", whole
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == ""


def test_recommend_top1_single_line(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    code = run_cli(
        "recommend", "--checkpoint", run / "checkpoint",
        "--history", "i3", "--top-n", 1,
    )
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


@pytest.mark.parametrize("top_n", [0, -1])
def test_recommend_rejects_top_n_below_one(tmp_path, ratings_file, capsys, top_n):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    code = run_cli(
        "recommend", "--checkpoint", run / "checkpoint", "--history", "i3", "--top-n", top_n,
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--top-n must be at least 1, got {top_n}" in captured.err


def whole_split_eval(split_dir, fold, checkpoint=None):
    """The report and history-length CSV of an evaluation that loads the
    whole split, as `vaerec eval` did before it read one fold."""
    split, _ = load_split(split_dir)
    heldout = getattr(split, fold)
    if checkpoint is None:
        ranker = PopularityRanker(split.train, split.n_items)
        name, digest = "pop", config_digest({"model": "pop"})
    else:
        ranker, manifest = load_checkpoint(str(checkpoint))
        name, digest = manifest["model"], config_digest(manifest["config"])
    rank_fn = batch_rank_fn(ranker, heldout)
    report = evaluate(rank_fn, heldout, n_values=(1, 5, 10, 100))
    report.model, report.config_digest = name, digest
    lines = ["low,high,users,ndcg100"] + [
        f"{row['low']},{'' if row['high'] is None else row['high']},{row['users']},"
        f"{'' if row['ndcg100'] is None else repr(row['ndcg100'])}"
        for row in evaluate(rank_fn, heldout, n_values=(), by_history_length=True).history
    ]
    return report.to_json(), "\n".join(lines) + "\n"


@pytest.mark.parametrize("fold", ["validation", "test"])
@pytest.mark.parametrize("kind", ["mvae", "rvae", "svae", "pop"])
def test_eval_of_one_fold_matches_whole_split_eval(tmp_path, ratings_file, capsys, kind, fold):
    split = prepare(tmp_path, ratings_file)
    checkpoint = None if kind == "pop" else train_tiny(tmp_path, split, model=kind) / "checkpoint"
    source = ["--pop"] if checkpoint is None else ["--checkpoint", checkpoint]
    csv_path = tmp_path / "by_length.csv"
    capsys.readouterr()
    code = run_cli("eval", *source, "--split-dir", split, "--split", fold, "--n", "1,5,10,100",
                   "--by-history-length", csv_path)
    assert code == 0
    assert (capsys.readouterr().out, csv_path.read_text()) == whole_split_eval(
        split, fold, checkpoint)


def test_eval_with_checkpoint_reads_only_the_scored_fold(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    argv = ["eval", "--checkpoint", run / "checkpoint", "--split-dir", split, "--split", "test"]
    capsys.readouterr()
    assert run_cli(*argv) == 0
    clean = capsys.readouterr().out
    (split / "train.tsv").write_text("not a sequence line\n")
    (split / "validation.tsv").write_text("0\t1,x\n")
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == clean
    assert run_cli("eval", "--pop", "--split-dir", split, "--split", "test") == 1
    assert "train.tsv: line 1: expected user<TAB>items" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["pop", "checkpoint"])
def test_eval_unknown_split_part_opens_no_file(tmp_path, ratings_file, capsys, monkeypatch,
                                               source):
    split = prepare(tmp_path, ratings_file)
    (split / ".." / "x.tsv").write_text("0\t1,2\n")
    argv = ["--pop"] if source == "pop" else ["--checkpoint", tmp_path / "missing"]
    capsys.readouterr()
    code, opened = run_cli_recording_opens(monkeypatch, "eval", *argv, "--split-dir", split,
                                           "--split", "../x")
    assert code == 1
    assert opened == []
    assert "unknown split part '../x'" in capsys.readouterr().err


def run_cli_recording_opens(monkeypatch, *argv):
    """The exit code of ``argv`` and the files it opened."""
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    try:
        return run_cli(*argv), opened
    finally:
        monkeypatch.undo()


def test_eval_hashes_the_vocabulary_once(tmp_path, ratings_file, capsys, monkeypatch):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    calls = []
    text = dp._vocabulary_text
    monkeypatch.setattr(dp, "_vocabulary_text", lambda raw: calls.append(raw) or text(raw))
    code = run_cli("eval", "--checkpoint", run / "checkpoint", "--split-dir", split,
                   "--out", tmp_path / "report")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("text, message", [
    ("x", "--n takes integers, got 'x'"),
    ("10,2.5", "--n takes integers, got '2.5'"),
    ("0", "--n cutoffs must be at least 1, got 0"),
    ("10,-3", "--n cutoffs must be at least 1, got -3"),
])
def test_eval_checks_cutoffs_before_it_opens_a_file(tmp_path, ratings_file, capsys,
                                                    monkeypatch, text, message):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    code, opened = run_cli_recording_opens(monkeypatch, "eval", "--checkpoint",
                                           run / "checkpoint", "--split-dir", split, "--n", text)
    assert code == 1
    assert opened == []
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_with_empty_cutoffs_reports_no_metrics(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    run = train_tiny(tmp_path, split)
    capsys.readouterr()
    for source in (["--pop"], ["--checkpoint", run / "checkpoint"]):
        assert run_cli("eval", *source, "--split-dir", split, "--n", "") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"] == {}
        assert payload["users"] > 1


def varied_ratings(tmp_path):
    """80 users with 4-29 distinct items of a 40-item catalog: fold-out
    items often rank below 10th, and the fold-ins fill several
    history-length buckets."""
    rng = np.random.default_rng(2)
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("".join(
        f"u{u},i{int(item)},5,{t}\n"
        for u in range(80)
        for t, item in enumerate(rng.choice(40, size=int(rng.integers(4, 30)), replace=False))
    ))
    return ratings


def test_history_series_ranks_past_the_reported_cutoff(tmp_path, capsys):
    split = prepare(tmp_path, varied_ratings(tmp_path))
    loaded, _ = load_split(split)
    ranker = PopularityRanker(loaded.train, loaded.n_items)
    assert loaded.n_items > 10
    series = {}
    for n in ("10", "10,100"):
        csv_path = tmp_path / f"by_length_{n}.csv"
        assert run_cli("eval", "--pop", "--split-dir", split, "--n", n,
                       "--by-history-length", csv_path) == 0
        series[n] = csv_path.read_text()
    assert series["10"] == series["10,100"]
    want = evaluate(ranker.rank, loaded.test, n_values=(), by_history_length=True).history
    rows = series["10"].splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == [
        "" if r["ndcg100"] is None else repr(r["ndcg100"]) for r in want]
    # a series cut to the top 10 would read otherwise
    assert want != evaluate(lambda fold_in, exclude: ranker.rank(fold_in, exclude)[:10],
                            loaded.test, n_values=(), by_history_length=True).history


@pytest.mark.parametrize("kind", ["pop", "mvae", "svae"])
@pytest.mark.parametrize("argv", [["--n", "10,100"], ["--n", "10", "--idcg-cap"]])
def test_history_csv_matches_per_bucket_evaluate(tmp_path, capsys, kind, argv):
    split = prepare(tmp_path, varied_ratings(tmp_path))
    loaded, _ = load_split(split)
    if kind == "pop":
        ranker, source = PopularityRanker(loaded.train, loaded.n_items), ["--pop"]
    else:
        base = train_tiny(tmp_path, split, model=kind) / "checkpoint"
        ranker, source = load_checkpoint(str(base))[0], ["--checkpoint", base]
    csv_path = tmp_path / "by_length.csv"
    assert run_cli("eval", *source, "--split-dir", split, *argv,
                   "--by-history-length", csv_path) == 0
    # one evaluation at n = 100 per bucket, over the full relevant set
    lines = ["low,high,users,ndcg100"]
    for lo, hi in HISTORY_BUCKETS:
        members = [u for u in loaded.test
                   if len(u.fold_in) >= lo and (hi is None or len(u.fold_in) <= hi)]
        value = (repr(evaluate(ranker.rank, members, n_values=(100,)).metrics["NDCG@100"])
                 if members else "")
        lines.append(f"{lo},{'' if hi is None else hi},{len(members)},{value}")
    assert csv_path.read_text() == "\n".join(lines) + "\n"
    assert sum(line.split(",")[3] != "" for line in lines[1:]) > 1


def test_eval_with_history_ranks_each_heldout_user_once(tmp_path, capsys, monkeypatch):
    split = prepare(tmp_path, varied_ratings(tmp_path))
    loaded, _ = load_split(split)
    excluded = []
    rank_items = components.rank_items

    def recording(scores, exclude, n=None):
        excluded.append(frozenset(exclude))
        return rank_items(scores, exclude, n)

    monkeypatch.setattr(components, "rank_items", recording)
    assert run_cli("eval", "--pop", "--split-dir", split,
                   "--by-history-length", tmp_path / "by_length.csv") == 0
    assert Counter(excluded) == Counter(frozenset(u.fold_in) for u in loaded.test)


def test_repeated_cutoff_reports_as_one(tmp_path, ratings_file, capsys):
    split = prepare(tmp_path, ratings_file)
    capsys.readouterr()
    reports = []
    for n in ("10,10", "10"):
        assert run_cli("eval", "--pop", "--split-dir", split, "--n", n) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["metrics"]["Precision@10"] > 0.0


@pytest.mark.parametrize("argv, cutoff", [
    (["--n", "1,5"], 5),
    (["--n", "5,20,10"], 20),
    (["--n", "5", "--by-history-length", "by_length.csv"], 100),
    (["--n", "500"], 500),
])
def test_eval_ranks_only_the_head_it_reads(tmp_path, ratings_file, capsys, monkeypatch, argv,
                                           cutoff):
    split = prepare(tmp_path, ratings_file)
    cutoffs = []
    rank_items = components.rank_items

    def recording(scores, exclude, n=None):
        cutoffs.append(n)
        return rank_items(scores, exclude, n)

    monkeypatch.setattr(components, "rank_items", recording)
    monkeypatch.chdir(tmp_path)
    assert run_cli("eval", "--pop", "--split-dir", split, *argv) == 0
    assert cutoffs and set(cutoffs) == {cutoff}
