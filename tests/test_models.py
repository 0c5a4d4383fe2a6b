import functools
import gc
import hashlib
import json
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaerec import autodiff as ad
from vaerec.autodiff import Tape, Tensor, gradient_check
from vaerec.data import DatasetSplit, UserSequence, Vocabulary, make_heldout
from vaerec.evaluation import EvalReport, evaluate
from vaerec import models
from vaerec.models import ModelConfig, build_model
from vaerec.models import checkpoint as checkpoint_module
from vaerec.models import components
from vaerec.models.checkpoint import load_checkpoint, save_checkpoint
from vaerec.models.components import (
    SCORE_BLOCK,
    GaussianParams,
    kl_to_standard_normal,
    rank_items,
    reparameterize,
)
from vaerec.models import svae as svae_module
from vaerec.models import training
from vaerec.models.training import TrainingError, _rvae_triples, train
from vaerec.synthetic import burst_split, cycle_split

from conftest import toy_config
from test_autodiff import reference_lazy_adam, store_moments


def gaussian(mu, log_sigma):
    return GaussianParams(mu=Tensor(np.atleast_2d(mu)), log_sigma=Tensor(np.atleast_2d(log_sigma)))


def randomize_params(model, seed=13, scale=0.6):
    """Move parameters to a generic point before a gradient check: the
    0.01-scale embedding init leaves some gate gradients near 1e-10, where
    finite-difference roundoff dominates the relative error."""
    rng = np.random.default_rng(seed)
    for _, p in model.store.items():
        p.data[...] = rng.uniform(-scale, scale, size=p.shape)


class TestConfigDefaults:
    def test_reference_architecture(self):
        cfg = ModelConfig()
        assert cfg.latent_dim == 64
        assert cfg.item_embedding_dim == 256
        assert cfg.gru_hidden == 200
        assert cfg.encoder_widths == (150, 64)
        assert cfg.decoder_widths == (64, 150)
        assert cfg.rvae_embedding_dim == 128
        assert cfg.rvae_encoder_widths == (100, 64)
        assert cfg.k_horizon == 4
        assert cfg.weight_decay == 0.01
        assert cfg.kl_weight == 1.0
        assert cfg.likelihood_mode == "next-k-multiset"

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(latent_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(k_horizon=0)
        with pytest.raises(ValueError):
            ModelConfig(likelihood_mode="bogus")
        with pytest.raises(ValueError):
            ModelConfig(encoder_widths=())

    def test_from_mapping_parses_strings(self):
        cfg = ModelConfig.from_mapping(
            {"latent_dim": "8", "encoder_widths": "20,10", "learning_rate": "0.01",
             "unrelated_pipeline_key": "ignored"}
        )
        assert cfg.latent_dim == 8
        assert cfg.encoder_widths == (20, 10)
        assert cfg.learning_rate == 0.01


class TestReparameterize:
    def test_zero_noise_gives_mean(self):
        g = gaussian([1.0, -2.0], [0.3, 0.7])
        z = reparameterize(g, np.zeros((1, 2)))
        np.testing.assert_array_equal(z.data, [[1.0, -2.0]])

    def test_standard_normal_passthrough(self):
        eps = np.array([[0.4, -1.1]])
        z = reparameterize(gaussian([0.0, 0.0], [0.0, 0.0]), eps)
        np.testing.assert_array_equal(z.data, eps)

    def test_hand_value(self):
        z = reparameterize(gaussian([1.0], [np.log(2.0)]), np.array([[0.5]]))
        np.testing.assert_allclose(z.data, [[2.0]], atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            reparameterize(gaussian([0.0], [0.0]), np.zeros((1, 3)))


class TestKL:
    def test_standard_normal_is_zero(self):
        kl = kl_to_standard_normal(gaussian([0.0, 0.0], [0.0, 0.0]))
        assert abs(kl.item()) < 1e-12

    def test_unit_mean_shift(self):
        kl = kl_to_standard_normal(gaussian([1.0], [0.0]))
        np.testing.assert_allclose(kl.item(), 0.5, atol=1e-15)

    def test_wide_sigma(self):
        kl = kl_to_standard_normal(gaussian([0.0], [np.log(2.0)]))
        np.testing.assert_allclose(kl.item(), 0.5 * (4.0 - 1.0 - np.log(4.0)), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.lists(st.floats(-2, 2), min_size=1, max_size=6),
    )
    def test_nonnegative(self, mus, log_sigmas):
        k = min(len(mus), len(log_sigmas))
        kl = kl_to_standard_normal(gaussian(mus[:k], log_sigmas[:k]))
        assert kl.item() >= -1e-12


def dense_log_softmax(logits):
    """Row-wise log softmax on the tape over a whole [rows, N] matrix, with
    its dense backward: the chain that ``log_softmax_at`` replaced, kept
    here as the oracle of the models' likelihoods."""
    out = Tensor(ad.log_softmax(logits.data))

    def backward(g):
        if logits.requires_grad:
            logits.accumulate_grad(g - np.exp(out.data) * g.sum(axis=1, keepdims=True))

    return ad._trace(out, (logits,), backward)


def dense_gather(t, rows, cols):
    """Entries t[rows, cols] on the tape; backward scatters additively."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = Tensor(t.data[rows, cols])

    def backward(g):
        if t.requires_grad:
            grad = np.zeros_like(t.data)
            np.add.at(grad, (rows, cols), g)
            t.accumulate_grad(grad)

    return ad._trace(out, (t,), backward)


def reference_mvae_loss(model, bags, noise, beta):
    """mvae's loss with the reconstruction as the dense product of the bags
    and the [B, N] log-probabilities."""
    g = model.encode(bags)
    log_pi = dense_log_softmax(model.logits(reparameterize(g, noise)))
    recon = ad.sum_all(ad.mul(Tensor(bags), log_pi))
    kl = kl_to_standard_normal(g)
    return ad.scale(ad.sub(ad.scale(kl, beta), recon), 1.0 / bags.shape[0])


def two_pass_pair_loss(model, user_rows, preferred, other, noise_preferred, noise_other,
                       beta):
    """rvae's pair loss with each half of the triples encoded on its own:
    two encoder passes, two scores, a subtraction and two KL terms."""
    g_i = model.encode(user_rows, preferred)
    g_j = model.encode(user_rows, other)
    s_i = model.score(reparameterize(g_i, noise_preferred))
    s_j = model.score(reparameterize(g_j, noise_other))
    nll = ad.sum_all(ad.softplus(ad.sub(s_j, s_i)))
    kl = ad.add(kl_to_standard_normal(g_i), kl_to_standard_normal(g_j))
    return ad.scale(ad.add(nll, ad.scale(kl, beta)), 1.0 / len(preferred))


def loss_and_grads(model, loss_fn, *args):
    """The loss of ``loss_fn(model, *args)`` and every parameter's grad,
    in store order: a copy of the gradient vector."""
    with Tape() as tape:
        loss = loss_fn(model, *args)
    tape.backward(loss, model.store)
    return loss.item(), model.store.grads.copy()


def zero_decoder_output(model):
    """A uniform decoder: zero the catalog projection."""
    model.store["decoder.out.0.w"].data[...] = 0.0
    model.store["decoder.out.0.b"].data[...] = 0.0


def loop_bag_vector(n_items, dtype, items):
    """A multi-hot bag built one item at a time: the oracle of each row of
    ``bag_matrix``."""
    bag = np.zeros(n_items, dtype)
    for i in items:
        if not 0 <= i < n_items:
            raise IndexError(f"item id {i} out of range [0, {n_items})")
        bag[i] = 1.0
    return bag


class TestMVAE:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bags_match_the_per_item_loop(self, dtype):
        model = build_model("mvae", 30, toy_config(), dtype=dtype)
        rng = np.random.default_rng(8)
        for _ in range(50):
            # 1 to 6 bags of repeated ids, sometimes none, as lists, tuples
            # or arrays
            lists = [rng.integers(0, 30, size=rng.integers(0, 40))
                     for _ in range(rng.integers(1, 7))]
            for convert in (np.ndarray.tolist, lambda a: tuple(a.tolist()), np.asarray):
                bags = [convert(items) for items in lists]
                want = np.stack([loop_bag_vector(30, dtype, items) for items in bags])
                got = model.bag_matrix(bags)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
        assert model.bag_matrix([]).shape == (0, 30)
        for bad in (30, -1, 31):
            # the first id out of range, in list order, is the one named
            bags = [[4, 0], [], [3, 3, 7, bad, 2, 45, -8], [99]]
            with pytest.raises(IndexError) as want:
                for items in bags:
                    loop_bag_vector(30, dtype, items)
            with pytest.raises(IndexError) as got:
                model.bag_matrix(bags)
            assert str(got.value) == str(want.value) == f"item id {bad} out of range [0, 30)"

    def test_uniform_decoder_reconstruction_only(self):
        cfg = toy_config()
        model = build_model("mvae", 5, cfg)
        zero_decoder_output(model)
        bags = np.array([[1, 0, 1, 0, 1], [0, 1, 0, 0, 0]], dtype=float)
        loss = model.loss(bags, np.zeros((2, cfg.latent_dim)), beta=0.0)
        expected = np.mean([3 * np.log(5.0), 1 * np.log(5.0)])
        np.testing.assert_allclose(loss.item(), expected, atol=1e-12)

    def test_standard_posterior_contributes_no_kl(self):
        cfg = toy_config()
        model = build_model("mvae", 5, cfg)
        # zero encoder weights -> mu = 0, log sigma = 0 -> KL exactly 0
        for name, p in model.store.items():
            if name.startswith("encoder"):
                p.data[...] = 0.0
        bags = np.array([[1, 1, 0, 0, 0]], dtype=float)
        noise = np.zeros((1, cfg.latent_dim))
        with_kl = model.loss(bags, noise, beta=1.0)
        without_kl = model.loss(bags, noise, beta=0.0)
        assert with_kl.item() == without_kl.item()

    def test_gradients(self):
        cfg = toy_config()
        model = build_model("mvae", 5, cfg, dtype=np.float64)
        randomize_params(model, seed=14)
        rng = np.random.default_rng(0)
        bags = rng.integers(0, 2, size=(2, 5)).astype(float)
        bags[:, 0] = 1.0
        noise = rng.standard_normal((2, cfg.latent_dim))
        err = gradient_check(lambda: model.loss(bags, noise, beta=0.8), model.store)
        assert err < 1e-4

    @pytest.mark.parametrize("n_items,rows", [(5, 1), (40, 7), (300, 64)])
    def test_loss_matches_the_dense_reference(self, n_items, rows):
        cfg = toy_config()
        model = build_model("mvae", n_items, cfg)
        randomize_params(model, seed=17)
        rng = np.random.default_rng(n_items + rows)
        bags = model.bag_matrix([rng.choice(n_items, size=rng.integers(1, 6))
                                 for _ in range(rows)])
        noise = rng.standard_normal((rows, cfg.latent_dim))
        want_loss, want_grad = loss_and_grads(model, reference_mvae_loss, bags, noise, 0.7)
        got_loss, got_grad = loss_and_grads(model, type(model).loss, bags, noise, 0.7)
        assert abs(got_loss - want_loss) <= 1e-12
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_and_gradients_are_those_of_a_dense_input_layer(self, monkeypatch, dtype):
        """The input layer records ``linear``'s one tape entry: a step's loss
        and whole gradient vector keep their bytes when it is ``linear``."""
        cfg = toy_config()
        model = build_model("mvae", 40, cfg, dtype=dtype)
        randomize_params(model, seed=21)
        rng = np.random.default_rng(21)
        bags = model.bag_matrix([rng.choice(30, size=rng.integers(1, 8)) for _ in range(5)])
        noise = rng.standard_normal((5, cfg.latent_dim))
        got = loss_and_grads(model, type(model).loss, bags, noise, 0.7)
        monkeypatch.setattr(ad, "bag_linear", ad.linear)
        want = loss_and_grads(model, type(model).loss, bags, noise, 0.7)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_step_moves_only_the_input_rows_of_items_in_the_bags(self, dtype):
        """The rows of ``encoder.0.w`` of items that no bag in the batch
        holds keep their value and both moments; every other value takes
        the per-tensor reference step, byte for byte."""
        cfg = toy_config(weight_decay=0.01)
        model = build_model("mvae", 12, cfg, dtype=dtype)
        store = model.store
        params = {name: p.data.copy() for name, p in store.items()}
        m1, m2 = ({name: np.zeros_like(p) for name, p in params.items()} for _ in "mv")
        rng = np.random.default_rng(2)
        for t, batch in enumerate([[[0, 3], [3, 7, 9]], [[1, 3, 11], [2]], [[9]]], start=1):
            bags = model.bag_matrix(batch)
            held = np.flatnonzero(bags.any(axis=0))
            with Tape() as tape:
                loss = model.loss(bags, rng.standard_normal((len(batch), cfg.latent_dim)), 0.5)
            tape.backward(loss, store)
            grads = {name: p.grad.copy() for name, p in store.items()}
            store.adam_step(cfg.learning_rate, weight_decay=cfg.weight_decay)
            reference_lazy_adam(params, grads, m1, m2, t, cfg.learning_rate,
                                {"encoder.0.w": held}, weight_decay=cfg.weight_decay)
        moments = store_moments(store)
        for name, p in store.items():
            assert p.data.tobytes() == params[name].tobytes(), name
            assert moments[name][0].tobytes() == m1[name].tobytes(), name
            assert moments[name][1].tobytes() == m2[name].tobytes(), name
        # items 4, 5, 6, 8 and 10 were in no bag: initial rows, zero moments
        never = [4, 5, 6, 8, 10]
        fresh = build_model("mvae", 12, cfg, dtype=dtype).store["encoder.0.w"].data
        assert store["encoder.0.w"].data[never].tobytes() == fresh[never].tobytes()
        assert not moments["encoder.0.w"][0][never].any()
        assert not moments["encoder.0.w"][1][never].any()

    def test_bag_invariance(self):
        model = build_model("mvae", 8, toy_config())
        fold_in = [3, 1, 6, 2]
        a = model.rank(fold_in, set(fold_in))
        b = model.rank([2, 6, 1, 3], set(fold_in))
        np.testing.assert_array_equal(a, b)

    def test_empty_fold_in_is_valid(self):
        model = build_model("mvae", 6, toy_config())
        ranked = model.rank([], set())
        assert sorted(ranked.tolist()) == list(range(6))


class TestRVAE:
    def test_indifference_point(self):
        cfg = toy_config()
        model = build_model("rvae", 6, cfg, n_users=3)
        # identical items scored with zero noise -> s_i == s_j
        noise = np.zeros((2, cfg.latent_dim))
        loss = model.pair_loss([0, 1], [2, 3], [2, 3], noise, noise, beta=0.0)
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)

    def test_saturation(self):
        # the per-triple likelihood term is softplus(s_j - s_i): ln 2 at
        # indifference, vanishing as the preferred score runs away
        term = ad.softplus(Tensor(np.array([0.0, -60.0, -700.0])))
        np.testing.assert_allclose(term.data[0], np.log(2.0), atol=1e-15)
        assert term.data[1] < 1e-20
        assert 0.0 <= term.data[2] < 1e-300

    def test_gradients(self):
        cfg = toy_config()
        model = build_model("rvae", 6, cfg, n_users=3, dtype=np.float64)
        randomize_params(model, seed=15)
        rng = np.random.default_rng(1)
        noise_i = rng.standard_normal((2, cfg.latent_dim))
        noise_j = rng.standard_normal((2, cfg.latent_dim))
        err = gradient_check(
            lambda: model.pair_loss([0, 3], [1, 4], [2, 5], noise_i, noise_j, beta=0.7),
            model.store,
        )
        assert err < 1e-4

    def test_score_batch_rows_equal_scores_of_each_fold_in(self):
        model = build_model("rvae", 7, toy_config(), n_users=2)
        randomize_params(model, seed=4)
        fold_ins = [(0,), (6, 2, 3), (1, 1), (5,)]
        scores = model.score_batch(fold_ins)
        assert scores.shape == (4, 7)
        assert not scores.flags.writeable
        for row, fold_in in zip(scores, fold_ins):
            assert row.tobytes() == model.scores(list(fold_in)).tobytes()

    @pytest.mark.parametrize("n_items, config", [
        (7, toy_config()),
        (300, toy_config(rvae_embedding_dim=16, rvae_encoder_widths=(12, 8), latent_dim=6)),
    ], ids=["toy", "wider"])
    def test_scores_match_the_tape_path(self, n_items, config):
        # the split first layer and the folded head round differently from
        # the [N, 2 d] block, so float64 agrees to 1e-12 and float32 in rank
        for dtype in (np.float64, np.float32):
            model = build_model("rvae", n_items, config, n_users=3, dtype=dtype)
            randomize_params(model, seed=8)
            # oracle: the catalog encoded through the tape ops pair_loss uses
            rows = [model.unseen_user_row] * n_items
            want = model.score(model.encode(rows, range(n_items)).mu).data[:, 0]
            got = model.scores(())
            assert got.dtype == dtype
            if dtype == np.float64:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(rank_items(got, set()), rank_items(want, set()))

    @pytest.mark.parametrize("config", [
        toy_config(),
        toy_config(rvae_embedding_dim=16, rvae_encoder_widths=(12, 8), latent_dim=6),
    ], ids=["toy", "wider"])
    def test_pair_loss_matches_the_two_pass_oracle(self, config):
        model = build_model("rvae", 9, config, n_users=4, dtype=np.float64)
        randomize_params(model, seed=16)
        rng = np.random.default_rng(2)
        users, preferred, other = [0, 3, 4, 1, 3], [1, 4, 8, 0, 6], [2, 5, 7, 3, 8]
        noise_i = rng.standard_normal((5, config.latent_dim))
        noise_j = rng.standard_normal((5, config.latent_dim))
        args = (users, preferred, other, noise_i, noise_j, 0.7)
        want_loss, want_grad = loss_and_grads(model, two_pass_pair_loss, *args)
        got_loss, got_grad = loss_and_grads(model, type(model).pair_loss, *args)
        assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=1e-12)

    def test_pair_loss_looks_the_table_up_once(self):
        config = toy_config(rvae_embedding_dim=16, rvae_encoder_widths=(12, 8), latent_dim=6)
        model = build_model("rvae", 9, config, n_users=4)
        noise = np.zeros((3, config.latent_dim))
        args = ([0, 1, 3], [2, 4, 6], [1, 5, 8], noise, noise, 0.5)
        with Tape() as tape:
            model.pair_loss(*args)
        with Tape() as two_pass:
            two_pass_pair_loss(model, *args)
        assert len(tape._lookups) == 1
        assert len(tape) < len(two_pass) == 23

    def test_pair_loss_memory_is_linear_in_the_batch(self):
        # a [B, 2B] matrix of score differences would take 128 MiB at B = 4096
        model = build_model("rvae", 9, toy_config(), n_users=4)
        n = 4096
        rng = np.random.default_rng(0)
        users, (preferred, other) = rng.integers(0, 5, n), rng.integers(0, 9, (2, n))
        noise = rng.standard_normal((n, 3))
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = model.pair_loss(users, preferred, other, noise, noise, 0.5)
            tape.backward(loss, model.store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak

    def test_pair_loss_rejects_noise_blocks_of_different_shapes(self):
        model = build_model("rvae", 6, toy_config(), n_users=3)
        with pytest.raises(ad.ShapeError, match="noise shapes"):
            model.pair_loss([0, 1], [2, 3], [4, 5], np.zeros((3, 3)), np.zeros((1, 3)), 0.5)

    def test_scores_read_the_table_without_a_lookup(self, monkeypatch):
        model = build_model("rvae", 7, toy_config(), n_users=2)

        def refuse(*args):
            raise AssertionError("scores looked the table up")

        monkeypatch.setattr(ad, "embedding_lookup", refuse)
        model.scores(())
        model.score_batch([(1,), ()])

    def test_scores_make_no_pair_block(self):
        # reference architecture over a 3000-item catalog
        model = build_model("rvae", 3000, ModelConfig(), n_users=5)
        block = 3000 * 2 * model.config.rvae_embedding_dim * model.store.dtype.itemsize
        tracemalloc.start()
        try:
            model.scores(())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block

    def test_deterministic_ranking(self):
        model = build_model("rvae", 7, toy_config(), n_users=2)
        a = model.rank([1], {1})
        b = model.rank([1], {1})
        np.testing.assert_array_equal(a, b)

    def test_dominant_item_tops_unseen_user_ranking(self):
        # every training user consumed item 0; after a short run the
        # reserved-row ranking should lead with it
        rng = np.random.default_rng(0)
        seqs = []
        for u in range(30):
            others = rng.choice(np.arange(1, 10), size=5, replace=False)
            seqs.append(UserSequence(u, (0,) + tuple(int(x) for x in others)))
        split = DatasetSplit(
            train=seqs,
            validation=[make_heldout(seqs[0])],
            test=[make_heldout(seqs[1])],
            vocabulary=Vocabulary([str(i) for i in range(10)]),
        )
        cfg = toy_config(epochs=8, learning_rate=2e-2, batch_size=32)
        model, _ = train("rvae", split, cfg)
        ranked = model.rank([], set())
        assert ranked[0] == 0


class TestSVAEForward:
    def test_single_step(self):
        cfg = toy_config()
        model = build_model("svae", 6, cfg)
        out = model.forward([[4]], np.zeros((1, cfg.latent_dim)))
        assert out.logits.shape == (1, 6)
        assert out.gaussian.mu.shape == (1, cfg.latent_dim)

    def test_shared_prefix_same_outputs(self):
        cfg = toy_config()
        model = build_model("svae", 6, cfg)
        noise = np.zeros((4, cfg.latent_dim))
        a = model.forward([[1, 2, 3, 4]], noise)
        b = model.forward([[1, 2, 3, 5]], noise)
        np.testing.assert_array_equal(a.gaussian.mu.data[:3], b.gaussian.mu.data[:3])
        np.testing.assert_array_equal(a.logits.data[:3], b.logits.data[:3])

    def test_suffix_permutation_invariance(self):
        cfg = toy_config()
        model = build_model("svae", 8, cfg)
        rng = np.random.default_rng(5)
        items = [3, 1, 4, 0, 6, 2]
        noise = rng.standard_normal((6, cfg.latent_dim))
        cut = 3
        permuted = items[:cut] + items[cut:][::-1]
        a = model.forward([items], noise)
        b = model.forward([permuted], noise)
        np.testing.assert_array_equal(a.gaussian.mu.data[:cut], b.gaussian.mu.data[:cut])
        np.testing.assert_array_equal(
            a.gaussian.log_sigma.data[:cut], b.gaussian.log_sigma.data[:cut]
        )
        np.testing.assert_array_equal(a.logits.data[:cut], b.logits.data[:cut])

    def test_empty_sequence_rejected(self):
        model = build_model("svae", 6, toy_config())
        with pytest.raises(ValueError, match="empty"):
            model.forward([[]], np.zeros((0, 3)))


def reference_svae_loss(model, items, noise, beta, k, mode):
    """svae's loss built one step at a time over the dense [T, N]
    log-probabilities: counts of the next k items (fewer at the end) and,
    in mixture mode, one gather and log-sum-exp per step, added up left to
    right."""
    out = model.forward([items], noise)
    log_pi = dense_log_softmax(out.logits)
    T = len(items)
    if mode == "next-k-multiset":
        counts = np.zeros((T, model.n_items))
        for t in range(1, T + 1):
            for i in items[t - 1 : t - 1 + k]:
                counts[t - 1, i] += 1.0
        recon = ad.sum_all(ad.mul(Tensor(counts), log_pi))
    else:
        recon = None
        for t in range(1, T + 1):
            rows = list(range(max(1, t - k + 1) - 1, t))
            window = dense_gather(log_pi, rows, [items[t - 1]] * len(rows))
            term = ad.add_const(ad.logsumexp_rows(window), -np.log(len(rows)))
            recon = term if recon is None else ad.add(recon, term)
    kl = kl_to_standard_normal(out.gaussian)
    return ad.scale(ad.sub(ad.scale(kl, beta), recon), 1.0 / T)


class TestSVAELoss:
    def test_modes_coincide_at_k1(self):
        cfg = toy_config()
        model = build_model("svae", 6, cfg)
        rng = np.random.default_rng(2)
        items = [0, 3, 5, 1]
        noise = rng.standard_normal((4, cfg.latent_dim))
        a = model.loss([items], noise, beta=1.0, k=1, mode="next-k-multiset")
        b = model.loss([items], noise, beta=1.0, k=1, mode="mixture")
        assert a.item() == b.item()

    def test_uniform_decoder_k1_loss_is_log_n(self):
        cfg = toy_config()
        model = build_model("svae", 6, cfg)
        zero_decoder_output(model)
        items = [0, 1, 2]
        loss = model.loss([items], np.zeros((3, cfg.latent_dim)), beta=0.0, k=1,
                          mode="next-k-multiset")
        np.testing.assert_allclose(loss.item(), np.log(6.0), atol=1e-12)

    def test_unknown_mode(self):
        model = build_model("svae", 6, toy_config())
        with pytest.raises(ValueError, match="mode"):
            model.loss([[0, 1]], np.zeros((2, 3)), beta=1.0, mode="nope")

    def test_tape_length_does_not_grow_with_sequence(self):
        cfg = toy_config()
        model = build_model("svae", 8, cfg)
        for mode in ("next-k-multiset", "mixture"):
            lengths = []
            for steps in (2, 5, 40):
                items = [t % 8 for t in range(steps)]
                with Tape() as tape:
                    model.loss([items], np.zeros((steps, cfg.latent_dim)), beta=1.0, mode=mode)
                lengths.append(len(tape))
            assert lengths[0] == lengths[1] == lengths[2], mode

    @pytest.mark.parametrize("mode", ["next-k-multiset", "mixture"])
    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_item_rejected(self, mode, bad):
        model = build_model("svae", 6, toy_config())
        with pytest.raises(IndexError, match=f"item id {bad} out of range"):
            model.loss([[0, 1, bad]], np.zeros((3, 3)), beta=1.0, mode=mode)

    @pytest.mark.parametrize("mode", ["next-k-multiset", "mixture"])
    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    @pytest.mark.parametrize("steps", [1, 3, 60])
    @pytest.mark.parametrize("repeats", [False, True])
    def test_loss_matches_the_per_step_reference(self, mode, k, steps, repeats):
        cfg = toy_config()
        model = build_model("svae", 64, cfg, dtype=np.float64)
        randomize_params(model, seed=17)
        rng = np.random.default_rng(steps * 10 + k)
        items = (rng.integers(0, 4, steps) if repeats else rng.permutation(64)[:steps]).tolist()
        noise = rng.standard_normal((steps, cfg.latent_dim))
        want_loss, want_grad = loss_and_grads(model, reference_svae_loss, items, noise, 0.7,
                                              k, mode)
        got_loss, got_grad = loss_and_grads(model, type(model).loss, [items], noise, 0.7, k,
                                            mode)
        assert abs(got_loss - want_loss) <= 1e-12
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["next-k-multiset", "mixture"])
    def test_gradients(self, mode):
        cfg = toy_config()
        model = build_model("svae", 6, cfg, dtype=np.float64)
        randomize_params(model, seed=13)
        rng = np.random.default_rng(3)
        items = [0, 2, 4, 1]
        noise = rng.standard_normal((4, cfg.latent_dim))
        err = gradient_check(
            lambda: model.loss([items], noise, beta=0.9, k=2, mode=mode), model.store
        )
        assert err < 1e-4


class TestSVAEBatchedLoss:
    """One ``loss`` call over B ragged sequences is the mean of their
    one-sequence losses, in float64."""

    # 1- and 2-item sequences beside longer ones; k = 4 and 9 pass some T
    SEQUENCES = [[3, 1, 4, 1, 5, 9, 2], [6], [5, 3], [0, 8, 8, 7, 2, 6, 5, 3, 5, 9, 7], [2, 7, 1]]

    def model(self, n_items=10):
        model = build_model("svae", n_items, toy_config(), dtype=np.float64)
        randomize_params(model, seed=21)
        return model

    def noise_of(self, sequences, seed=5):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((len(s), 3)) for s in sequences]

    @pytest.mark.parametrize("mode", ["next-k-multiset", "mixture"])
    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_loss_and_gradients_are_the_mean_of_one_sequence_calls(self, mode, k):
        model = self.model()
        noise = self.noise_of(self.SEQUENCES)
        single = [loss_and_grads(model, type(model).loss, [items], z, 0.7, k, mode)
                  for items, z in zip(self.SEQUENCES, noise)]
        got_loss, got_grad = loss_and_grads(model, type(model).loss, self.SEQUENCES,
                                            np.concatenate(noise), 0.7, k, mode)
        assert abs(got_loss - np.mean([loss for loss, _ in single])) <= 1e-12
        np.testing.assert_allclose(got_grad, np.mean([g for _, g in single], axis=0),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["next-k-multiset", "mixture"])
    def test_gradient_check_on_a_ragged_batch(self, mode):
        model = self.model(n_items=6)
        sequences = [[0, 2, 4, 1], [5], [3, 3]]
        noise = np.concatenate(self.noise_of(sequences, seed=3))
        err = gradient_check(lambda: model.loss(sequences, noise, beta=0.9, k=2, mode=mode),
                             model.store)
        assert err < 1e-4

    def test_another_sequence_leaves_a_sequences_log_probabilities(self):
        model = self.model()
        first, *others = self.SEQUENCES
        noise = self.noise_of(self.SEQUENCES)

        def log_probs(batch):
            out = model.forward(batch, np.concatenate(noise[: len(batch)]))
            return ad.log_softmax(out.logits.data)[: len(first)]

        alone = log_probs([first])
        batch = log_probs([first] + others)
        # the same lengths, other items: the same shapes throughout
        swapped = log_probs([first] + [[(i + 3) % 10 for i in s] for s in others])
        assert swapped.tobytes() == batch.tobytes()
        np.testing.assert_allclose(batch, alone, rtol=0, atol=1e-12)

    def test_empty_batches_and_sequences_are_rejected(self):
        model = self.model()
        for batch in ([], [[1, 2], []]):
            with pytest.raises(ValueError, match="empty"):
                model.loss(batch, np.zeros((2, 3)), beta=1.0)


class TestSVAEBatches:
    def test_batches_of_svae_batch_users_in_order(self):
        assert training.SVAE_BATCH == 4
        got = training._svae_batches([3] * 10, n_items=8)
        assert got == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_a_batch_closes_before_its_catalog_head_passes_the_budget(self, monkeypatch):
        monkeypatch.setattr(svae_module, "SCORE_FLOATS", 9 * 8)
        # at most 9 rows of 8 items: 3 + 5 fit, 2 more would not; 12 alone
        got = training._svae_batches([3, 5, 2, 12, 1, 1, 4, 4], n_items=8)
        assert got == [[0, 1], [2], [3], [4, 5, 6], [7]]

    def test_a_long_user_trains_alone(self, monkeypatch):
        split = cycle_split(n_items=8, n_train=12, n_val=4, n_test=4, length=6, seed=3)
        split.train[5] = UserSequence(split.train[5].user_index, tuple(range(8)) * 3)
        monkeypatch.setattr(svae_module, "SCORE_FLOATS", 12 * 8)
        calls = []
        loss = svae_module.SequentialVAE.loss

        def recording(model, sequences, *args):
            calls.append([len(s) for s in sequences])
            return loss(model, sequences, *args)

        monkeypatch.setattr(svae_module.SequentialVAE, "loss", recording)
        train("svae", split, toy_config(epochs=1))
        assert [24] in calls
        assert all(sum(c) <= 12 for c in calls if c != [24])
        assert sorted(n for c in calls for n in c) == sorted(len(s.items) for s in split.train)

    def test_the_generator_ends_where_the_per_user_schedule_leaves_it(self, monkeypatch):
        split = cycle_split(n_items=8, n_train=13, n_val=4, n_test=4, length=6, seed=3)
        cfg = toy_config()
        states = []
        for batch in (1, training.SVAE_BATCH):
            monkeypatch.setattr(training, "SVAE_BATCH", batch)
            model = build_model("svae", split.n_items, cfg)
            rng = np.random.default_rng(11)
            training._svae_epoch(model, split.train, rng, 0.5, cfg)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]


class TestPredictions:
    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_exclude_all_but_one(self, kind):
        model = build_model(kind, 6, toy_config(), n_users=2)
        ranked = model.rank([0], set(range(6)) - {3})
        np.testing.assert_array_equal(ranked, [3])

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_permutation_of_catalog_minus_exclusions(self, kind):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = int(rng.integers(4, 9))
            model = build_model(kind, n, toy_config(seed=trial), n_users=2)
            fold_in = list(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            exclude = set(fold_in)
            ranked = model.rank(fold_in, exclude)
            assert len(set(ranked.tolist())) == len(ranked)
            assert set(ranked.tolist()) == set(range(n)) - exclude

    def test_svae_deterministic(self):
        model = build_model("svae", 7, toy_config())
        a = model.rank([1, 2], {1, 2})
        b = model.rank([1, 2], {1, 2})
        np.testing.assert_array_equal(a, b)


class TestRankItems:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-3, 3).map(float),
                           st.sampled_from([-np.inf, np.inf, np.nan, -0.0])),
                 max_size=60),
        st.data(),
    )
    def test_top_n_is_the_head_of_the_full_ranking(self, values, data):
        scores = np.array(values, dtype=np.float64)
        exclude = set(data.draw(st.lists(st.integers(0, max(len(values) - 1, 0)),
                                         max_size=len(values))))
        # the full ranking: a stable sort of the whole catalog, then exclusions
        order = np.argsort(-scores, kind="stable")
        want = np.array([i for i in order if i not in exclude], dtype=order.dtype)
        full = rank_items(scores, exclude)
        assert full.dtype == want.dtype and full.tobytes() == want.tobytes()
        n = data.draw(st.integers(0, len(want) + 3))
        top = rank_items(scores, exclude, n)
        assert top.dtype == want.dtype and top.tobytes() == want[:n].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(components.PARTITION_FROM - 40, components.PARTITION_FROM + 40),
           st.integers(0, 60), st.integers(0, 2**32 - 1), st.data())
    def test_top_n_on_both_sides_of_the_partition_cut(self, size, n_exclude, seed, data):
        # few distinct values, so that ties straddle the n-th key
        rng = np.random.default_rng(seed)
        pool = np.array([-np.inf, np.inf, np.nan, -0.0, 0.0, 1.0, -1.0, 2.5])
        scores = rng.choice(pool, size=size)
        exclude = set(rng.integers(size, size=n_exclude).tolist())
        order = np.argsort(-scores, kind="stable")
        want = np.array([i for i in order if i not in exclude], dtype=order.dtype)
        n = data.draw(st.sampled_from([0, 1, 100, len(want) - 1, len(want), len(want) + 2]))
        top = rank_items(scores, exclude, n)
        assert top.dtype == want.dtype and top.tobytes() == want[:n].tobytes()


class TestBatchedScoring:
    """``score_batch`` against one ``scores`` call per fold-in. A multi-row
    matmul may round differently from a one-row one, so rows agree to 1e-12
    in float64 (1e-5 in float32) and rankings exactly."""

    SPLITS = {
        "cycle": lambda: cycle_split(n_items=16, n_train=4, n_val=35, n_test=35, length=12,
                                     seed=2),
        "burst": lambda: burst_split(n_items=16, n_train=4, n_val=35, n_test=35,
                                     blocks_per_user=3, seed=2),
    }

    def fold_ins(self, split):
        """More fold-ins than one block: whole ones, prefixes of every
        length down to one item, and repeats."""
        whole = [u.fold_in for u in split.validation + split.test]
        prefixes = [f[: 1 + i % len(f)] for i, f in enumerate(whole)]
        fold_ins = whole + prefixes + whole[:5]
        assert len(fold_ins) > 2 * SCORE_BLOCK
        assert min(map(len, fold_ins)) == 1
        return fold_ins

    @pytest.mark.parametrize("split_name", sorted(SPLITS))
    @pytest.mark.parametrize("kind", ["mvae", "svae"])
    def test_rows_match_one_fold_in_at_a_time(self, kind, split_name):
        split = self.SPLITS[split_name]()
        fold_ins = self.fold_ins(split)
        for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            model = build_model(kind, split.n_items, toy_config(), dtype=dtype)
            randomize_params(model, seed=5, scale=1.0)
            batch = model.score_batch(fold_ins)
            assert batch.shape == (len(fold_ins), split.n_items)
            rankings = set()
            for row, fold_in in zip(batch, fold_ins):
                want = model.scores(fold_in)
                np.testing.assert_allclose(row, want, rtol=0, atol=atol)
                exclude = set(fold_in)
                ranked = rank_items(row, exclude)
                np.testing.assert_array_equal(ranked, rank_items(want, exclude))
                rankings.add(tuple(rank_items(row, set())))
            assert len(rankings) > 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 400), max_size=150), st.integers(1, 40),
           st.integers(1, 3000))
    def test_blocks_are_sorted_and_fit_the_budget(self, lengths, step_floats, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(svae_module, "SCORE_FLOATS", budget)
            blocks = svae_module.length_blocks(lengths, step_floats)
        flat = [row for block in blocks for row in block]
        assert flat == sorted(range(len(lengths)), key=lengths.__getitem__)
        for block in blocks:
            assert 1 <= len(block) <= SCORE_BLOCK
            cost = len(block) * (max(lengths[r] for r in block) + 1) * step_floats
            assert len(block) == 1 or cost <= budget
        # a block is cut only when the next fold-in would not fit
        for block, following in zip(blocks, blocks[1:]):
            steps = lengths[following[0]] + 1
            assert len(block) == SCORE_BLOCK or (len(block) + 1) * steps * step_floats > budget

    def test_long_fold_ins_stay_within_the_float_budget(self, monkeypatch):
        """Long fold-ins get fewer rows a block, so a scoring call's memory
        follows the budget, not the block's row cap."""
        config = toy_config(item_embedding_dim=8, gru_hidden=16)
        model = build_model("svae", 12, config)
        randomize_params(model, seed=5, scale=1.0)
        rng = np.random.default_rng(3)
        fold_ins = [tuple(rng.integers(12, size=300 - 7 * i).tolist()) for i in range(10)]
        step_floats = 2 * 8 + 8 * 16
        budget = 3 * 301 * step_floats  # three of the longest fold-ins
        monkeypatch.setattr(svae_module, "SCORE_FLOATS", budget)
        tracemalloc.start()
        try:
            batch = model.score_batch(fold_ins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all ten in one block would hold about 3.3 x the budget
        assert peak < 1.3 * 8 * budget
        for row, fold_in in zip(batch, fold_ins):
            np.testing.assert_allclose(row, model.scores(fold_in), rtol=0, atol=1e-12)

    def test_one_fold_in_is_the_scores_row(self):
        split = self.SPLITS["cycle"]()
        model = build_model("svae", split.n_items, toy_config(), dtype=np.float64)
        randomize_params(model, seed=5, scale=1.0)
        fold_in = split.test[0].fold_in
        # the oracle: chained gru_cell steps over the start token (row
        # n_items) and then each fold-in item, the last state encoded and
        # decoded
        h = Tensor(np.zeros((1, model.config.gru_hidden)))
        for i in [model.n_items, *fold_in]:
            h = ad.gru_cell(Tensor(model.item_embedding.data[[i]]), h, model.gru)
        want = ad.log_softmax(model.logits(model._encode_states(h).mu).data)[0]
        np.testing.assert_allclose(model.score_batch([fold_in])[0], want, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 11), max_size=9), max_size=5), st.integers(0, 5))
    def test_each_padded_sequence_matches_its_own_states(self, consumed, at):
        """Row b of a ragged block, up to its last real step, is what the
        recurrence gives for sequence b alone; one sequence is empty."""
        consumed = consumed[: at] + [[]] + consumed[at:]
        model = build_model("svae", 12, toy_config(), dtype=np.float64)
        randomize_params(model, seed=5, scale=1.0)
        rows = len(consumed)
        states = model._states(consumed).data
        assert states.shape == ((max(map(len, consumed)) + 1) * rows, 4)
        by_step = states.reshape(-1, rows, 4)
        for b, items in enumerate(consumed):
            alone = model._states([items]).data
            np.testing.assert_allclose(by_step[: len(items) + 1, b], alone, rtol=0, atol=1e-12)

    def test_svae_rejects_an_empty_fold_in(self):
        model = build_model("svae", 6, toy_config())
        with pytest.raises(ValueError, match="fold-in must not be empty"):
            model.score_batch([(1, 2), ()])

    @pytest.mark.parametrize("kind", ["mvae", "svae"])
    def test_no_fold_ins(self, kind):
        model = build_model(kind, 6, toy_config())
        assert model.score_batch([]).shape == (0, 6)


class TestEmbeddingIdRanges:
    """svae keeps its start token, and rvae its user and item rows, in one
    embedding table, whose own range check spans them all. Each entry point
    checks its ids itself: a bad one is an ``IndexError`` naming it, never
    another row read in its place."""

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize("batched", [False, True], ids=["scores", "score_batch"])
    def test_svae_fold_in(self, batched, bad):
        model = build_model("svae", 6, toy_config())
        fold_in = [1, bad, 2]
        with pytest.raises(IndexError, match=rf"item id {bad} out of range \[0, 6\)"):
            if batched:
                model.score_batch([(0, 1), fold_in])
            else:
                model.scores(fold_in)

    # build_model("rvae", 6, toy_config(), n_users=3): user rows 0..3, the
    # last one reserved, and items 0..5
    RVAE_CASES = {
        "item -1": ([0, 1], [2, -1], r"item id -1 out of range \[0, 6\)"),
        "item n_items": ([0, 1], [6, 2], r"item id 6 out of range \[0, 6\)"),
        "user row -1": ([-1, 1], [2, 3], r"user row -1 out of range \[0, 4\)"),
        "user row n_users + 1": ([0, 4], [2, 3], r"user row 4 out of range \[0, 4\)"),
    }

    @pytest.mark.parametrize("case", sorted(RVAE_CASES))
    def test_rvae_encode(self, case):
        users, items, message = self.RVAE_CASES[case]
        model = build_model("rvae", 6, toy_config(), n_users=3)
        with pytest.raises(IndexError, match=message):
            model.encode(users, items)

    @pytest.mark.parametrize("case", sorted(RVAE_CASES))
    @pytest.mark.parametrize("slot", ["preferred", "other"])
    def test_rvae_pair_loss(self, case, slot):
        users, items, message = self.RVAE_CASES[case]
        model = build_model("rvae", 6, toy_config(), n_users=3)
        pairs = {"preferred": items, "other": [5, 4]}
        if slot == "other":
            pairs = {"preferred": [5, 4], "other": items}
        noise = np.zeros((2, 3))
        with pytest.raises(IndexError, match=message):
            model.pair_loss(users, pairs["preferred"], pairs["other"], noise, noise, beta=1.0)

    def test_rvae_reserved_row_is_a_user_row(self):
        model = build_model("rvae", 6, toy_config(), n_users=3)
        noise = np.zeros((2, 3))
        assert np.isfinite(model.pair_loss([3, 0], [5, 0], [4, 1], noise, noise, 1.0).item())


class TestOneUserPerStepTraining:
    """With ``SVAE_BATCH`` at 1, svae takes one Adam step per user, through
    the batched loss's B = 1 form, which must keep the bytes of the
    one-user-per-step schedule; a second pinned run holds the default
    batch."""

    # sha256 of the trained arena as little-endian float64, and the
    # per-epoch training losses and validation NDCG@100; recorded when Adam
    # became lazy on the item embedding table, which moved every one. The
    # digests were re-recorded when the GRU went from nine tensors to four:
    # that arena, reordered into the nine-tensor layout, still hashes to
    # a63520aa... (next-k-multiset) and 2197a08b... (mixture). They were
    # re-recorded again when the GRU's gates became tanh(z / 2) / 2 + 1 / 2
    # (b317a1e3... and a2462cf2... before); the losses and NDCGs held
    PINNED = {
        "next-k-multiset": (
            "86833ffe850e31b5bb993fa7997c1e4a170ac4e7b3749924e2844923dae6b3c0",
            [4.792113267544854, 4.732063155366269],
            [0.649652286785407, 0.651047562877841],
        ),
        "mixture": (
            "2e370bc073688df556fc8223c430dacb85591bb9854ab192286417475debeb65",
            [2.518100537334393, 2.507613080870526],
            [0.663032155260709, 0.6440186536691633],
        ),
    }
    # the same runs at the default SVAE_BATCH of 4, recorded when svae
    # training went from one user to four per step, and re-recorded with the
    # tanh gates (a88fa5b9... and 13b4862c... before; the mixture run's
    # second loss moved in its last bit, from ...62777)
    PINNED_BATCHED = {
        "next-k-multiset": (
            "5d894fd7a70429749c87b262ac88c29407f3b1bacde6d9f63e2272e13e819d5d",
            [4.8241511548579705, 4.804123367022711],
            [0.5985566873882854, 0.6541306884192895],
        ),
        "mixture": (
            "0a658919f226fe9737daff305059bd5115f6f1d2167bb1f213ef8ba4fa0f29db",
            [2.5243056766040803, 2.524453860846278],
            [0.6817343845909828, 0.6817343845909828],
        ),
    }
    # float_kernel_probe() where the pins were recorded (x86-64 with
    # AVX-512, numpy 2.4 and its bundled OpenBLAS)
    PINNED_PROBE = "5f91e0275ee7351d72820409154cc89b197b271e31c0bdb87f48d4576d4b9c92"

    @staticmethod
    def float_kernel_probe():
        """sha256 of numpy's results, on fixed inputs, for the kernels svae
        training runs: one- and many-row matmuls, tanh, exp, log, sqrt and
        logaddexp. Their last bits depend on the CPU's vector instructions
        and the BLAS build, so pinned training bytes hold only where this
        matches."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(9, 7))
        b = rng.normal(size=(7, 6))
        parts = [a[:1] @ b, a[0] @ b, a @ b, a.T @ a, np.tanh(a), np.exp(a),
                 np.log(np.abs(a)), np.sqrt(np.abs(a)), np.logaddexp(0.0, a)]
        h = hashlib.sha256()
        for part in parts:
            h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
        return h.hexdigest()

    def check_pinned_run(self, mode, pinned):
        split = cycle_split(n_items=12, n_train=20, n_val=6, n_test=6, length=9, seed=3)
        model, curve = train("svae", split, toy_config(epochs=2, likelihood_mode=mode),
                             dtype=np.float64)
        digest, losses, ndcgs = pinned
        np.testing.assert_allclose([s.train_loss for s in curve], losses, rtol=1e-9)
        if self.float_kernel_probe() != self.PINNED_PROBE:
            pytest.skip("numpy's float kernels round differently here than where the "
                        "training bytes were pinned")
        assert [s.train_loss for s in curve] == losses
        assert [s.val_ndcg100 for s in curve] == ndcgs
        blob = np.ascontiguousarray(model.store.values, dtype="<f8").tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_two_epochs_match_the_pinned_run(self, mode, monkeypatch):
        monkeypatch.setattr(training, "SVAE_BATCH", 1)
        self.check_pinned_run(mode, self.PINNED[mode])

    @pytest.mark.parametrize("mode", sorted(PINNED_BATCHED))
    def test_two_epochs_at_the_default_batch_match_the_pinned_run(self, mode):
        assert training.SVAE_BATCH == 4
        self.check_pinned_run(mode, self.PINNED_BATCHED[mode])


class TestFloat32Arena:
    """Models train and serve in float32 by default: no float64 array
    reaches a tape, a gradient or Adam's moments, although noise is drawn in
    float64 and callers may pass float64 bags."""

    @pytest.fixture
    def created(self, monkeypatch):
        """Every Tensor the test makes, so that inputs off the tape count."""
        tensors = []
        init = Tensor.__init__

        def recording(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            tensors.append(tensor)

        monkeypatch.setattr(Tensor, "__init__", recording)
        return tensors

    def step(self, model, loss_fn, *args) -> dict:
        """One training step; every array it leaves behind, by name."""
        with Tape() as tape:
            loss = loss_fn(*args)
        tape.backward(loss, model.store)
        model.store.adam_step(1e-3, weight_decay=0.01)
        store = model.store
        arrays = {"values": store.values, "grads": store.grads,
                  "moment1": store._moment1, "moment2": store._moment2}
        for i, (out, _) in enumerate(tape._records):
            arrays[f"record {i} output"] = out.data
            arrays[f"record {i} grad"] = out.grad
        for name, p in store.items():
            arrays[f"{name}.grad"] = p.grad
        return arrays

    def one_step(self, kind, mode):
        cfg = toy_config(likelihood_mode=mode)
        model = build_model(kind, 8, cfg, n_users=3)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((3, cfg.latent_dim))
        if kind == "mvae":
            bags = model.bag_matrix([[0, 2], [1, 5, 7], [3]])
            return model, self.step(model, model.loss, bags, noise, 0.5)
        if kind == "rvae":
            other = rng.standard_normal((3, cfg.latent_dim))
            return model, self.step(model, model.pair_loss, [0, 1, 2], [1, 2, 3], [4, 5, 6],
                                    noise, other, 0.5)
        return model, self.step(model, model.loss, [[0, 2, 4]], noise, 0.5)

    @pytest.mark.parametrize("kind, mode", [("mvae", "next-k-multiset"),
                                            ("rvae", "next-k-multiset"),
                                            ("svae", "next-k-multiset"), ("svae", "mixture")])
    def test_no_float64_on_a_training_step(self, kind, mode, created):
        model, arrays = self.one_step(kind, mode)
        assert any(name.startswith("record") for name in arrays)
        arrays.update({f"tensor {i}": t.data for i, t in enumerate(created)})
        wrong = {name: a.dtype for name, a in arrays.items()
                 if a is not None and a.dtype != np.float32}
        assert not wrong
        assert model.store.grads is not None and model.store._moment2 is not None

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_scores_are_float32(self, kind):
        model = build_model(kind, 8, toy_config(), n_users=3)
        assert model.scores([1, 4]).dtype == np.float32
        assert model.score_batch([[1, 4], [0], [2, 3, 7]]).dtype == np.float32

    def test_float64_bags_are_cast_to_the_store_dtype(self):
        model = build_model("mvae", 8, toy_config())
        bags = model.bag_matrix([[0, 2], [1, 5, 7]])
        as64 = bags.astype(np.float64)
        assert model.encode(as64).mu.data.dtype == np.float32
        np.testing.assert_array_equal(model.encode(as64).mu.data, model.encode(bags).mu.data)


def reference_svae_epoch(model, train, rng, beta, config):
    """One shuffled user per step: the oracle of ``_svae_epoch`` with
    ``SVAE_BATCH`` at 1."""
    order = rng.permutation(len(train))
    total = 0.0
    for idx in order:
        items = train[idx].items
        noise = rng.standard_normal((len(items), config.latent_dim))
        with Tape() as tape:
            loss = model.loss([items], noise, beta)
        value = loss.item()
        assert np.isfinite(value)
        tape.backward(loss, model.store)
        model.store.adam_step(config.learning_rate, weight_decay=config.weight_decay)
        total += value
    return total / max(len(order), 1)


def reference_svae_batch_epoch(model, train, rng, beta, config, size):
    """``size`` shuffled users per step, the last batch ragged; the
    catalog-head cap of ``training._svae_batches`` never binds on the
    splits it runs on."""
    order = rng.permutation(len(train))
    total = 0.0
    for lo in range(0, len(order), size):
        batch = [train[i].items for i in order[lo : lo + size]]
        noise = np.concatenate([rng.standard_normal((len(items), config.latent_dim))
                                for items in batch])
        with Tape() as tape:
            loss = model.loss(batch, noise, beta)
        value = loss.item()
        assert np.isfinite(value)
        tape.backward(loss, model.store)
        model.store.adam_step(config.learning_rate, weight_decay=config.weight_decay)
        total += value * len(batch)
    return total / max(len(order), 1)


def reference_mvae_epoch(model, train, rng, beta, config):
    order = rng.permutation(len(train))
    bags = np.stack([loop_bag_vector(model.n_items, model.store.dtype, train[i].items)
                     for i in order])
    total = 0.0
    for lo in range(0, len(order), config.batch_size):
        batch = bags[lo : lo + config.batch_size]
        noise = rng.standard_normal((batch.shape[0], config.latent_dim))
        with Tape() as tape:
            loss = model.loss(batch, noise, beta)
        value = loss.item()
        assert np.isfinite(value)
        tape.backward(loss, model.store)
        model.store.adam_step(config.learning_rate, weight_decay=config.weight_decay)
        total += value * batch.shape[0]
    return total / max(len(order), 1)


def reference_rvae_epoch(model, train, rng, beta, config):
    triples = _rvae_triples(train, model.n_items, rng)
    total = 0.0
    for lo in range(0, len(triples), config.batch_size):
        batch = triples[lo : lo + config.batch_size]
        noise_i = rng.standard_normal((len(batch), config.latent_dim))
        noise_j = rng.standard_normal((len(batch), config.latent_dim))
        with Tape() as tape:
            loss = model.pair_loss(
                batch[:, 0], batch[:, 1], batch[:, 2], noise_i, noise_j, beta
            )
        value = loss.item()
        assert np.isfinite(value)
        tape.backward(loss, model.store)
        model.store.adam_step(config.learning_rate, weight_decay=config.weight_decay)
        total += value * len(batch)
    return total / max(len(triples), 1)


def reference_rvae_triples(train, n_items, rng):
    """The sequential sampler: one scalar draw at a time until it misses the
    user's consumed items; the oracle of ``training._rvae_triples``."""
    triples = []
    for row, seq in enumerate(train):
        consumed = set(seq.items)
        if len(consumed) >= n_items:
            continue
        for i in seq.items:
            j = int(rng.integers(n_items))
            while j in consumed:
                j = int(rng.integers(n_items))
            triples.append((row, i, j))
    if not triples:
        raise ValueError("rvae training needs a user who has not consumed every item")
    out = np.asarray(triples, dtype=np.int64)
    return out[rng.permutation(len(out))]


@st.composite
def rvae_histories(draw):
    """A catalog size and user histories with repeated items, users a few
    items short of the whole catalog, users who consumed all of it and
    empty ones."""
    n_items = draw(st.sampled_from([1, 2, 3, 5, 7, 12, 200, 3000, 3706]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    users = []
    for kind in draw(st.lists(st.sampled_from(["short", "near-full", "full", "empty"]),
                              max_size=8)):
        if kind == "short":
            items = rng.integers(n_items, size=int(rng.integers(1, 25)))
        elif kind == "near-full" and n_items <= 12:
            # every item but one to three, in random order, some repeated
            kept = rng.permutation(n_items)[int(rng.integers(1, min(3, n_items) + 1)):]
            items = np.concatenate([kept, kept[: len(kept) // 2]])
        elif kind == "full" and n_items <= 3000:
            items = np.concatenate([rng.permutation(n_items), rng.integers(n_items, size=2)])
        else:
            items = np.array([], dtype=np.int64)
        users.append(UserSequence(len(users), tuple(int(i) for i in items)))
    return n_items, users


class TestRvaeSampler:
    @settings(max_examples=200, deadline=None)
    @given(rvae_histories(), st.integers(0, 2**32 - 1))
    def test_matches_the_sequential_sampler_and_its_generator_state(self, case, seed):
        n_items, users = case
        results = []
        for sampler in (reference_rvae_triples, _rvae_triples):
            rng = np.random.default_rng(seed)
            try:
                triples = sampler(users, n_items, rng)
            except ValueError as err:
                triples = str(err)
            results.append((triples if isinstance(triples, str) else triples.tobytes(),
                            rng.bit_generator.state))
        assert results[0] == results[1]

    def test_batch_draws_equal_scalar_draws(self):
        for n in (7, 200, 3000, 3706):
            batched, scalar = np.random.default_rng(n), np.random.default_rng(n)
            for size in (1, 5, 2, 17, 1, 64, 3):
                got = batched.integers(n, size=size)
                want = [int(scalar.integers(n)) for _ in range(size)]
                assert got.tolist() == want
            assert batched.bit_generator.state == scalar.bit_generator.state


# each model's epoch as an inline tape/backward/Adam loop, kept as the
# oracle of the epoch functions that share ``training._step``
REFERENCE_EPOCHS = {"svae": reference_svae_epoch, "mvae": reference_mvae_epoch,
                    "rvae": reference_rvae_epoch}


class TestTraining:
    def small_split(self):
        return cycle_split(n_items=8, n_train=12, n_val=4, n_test=4, length=6, seed=3)

    def test_zero_epochs_returns_initial_model(self):
        split = self.small_split()
        cfg = toy_config(epochs=0)
        model, curve = train("svae", split, cfg)
        fresh = build_model("svae", split.n_items, cfg)
        assert curve == []
        for name, p in model.store.items():
            np.testing.assert_array_equal(p.data, fresh.store[name].data)

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_trajectory_bit_identical(self, kind):
        split = self.small_split()
        cfg = toy_config(epochs=2, batch_size=8)
        model_a, curve_a = train(kind, split, cfg)
        model_b, curve_b = train(kind, split, cfg)
        assert [s.train_loss for s in curve_a] == [s.train_loss for s in curve_b]
        assert [s.val_ndcg100 for s in curve_a] == [s.val_ndcg100 for s in curve_b]
        assert model_a.store.values.dtype == np.float32
        assert model_a.store.values.tobytes() == model_b.store.values.tobytes()

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_curve_validation_equals_full_ranking_of_the_selected_model(self, kind):
        # validation ranks only the top 100; the full catalog ranking of the
        # model train() returns must give the best epoch's figure
        split = cycle_split(n_items=120, n_train=30, n_val=8, n_test=4, length=8, seed=4)
        model, curve = train(kind, split, toy_config(epochs=3, batch_size=8))
        full = evaluate(model.rank, split.validation, n_values=(100,))
        assert max(s.val_ndcg100 for s in curve) == full.metrics["NDCG@100"]

    @pytest.mark.parametrize("kind, mode", [("mvae", "next-k-multiset"), ("rvae", "next-k-multiset"),
                                            ("svae", "next-k-multiset"), ("svae", "mixture")])
    def test_epochs_match_the_inline_reference_loop(self, kind, mode, monkeypatch):
        # svae against its one-user-per-step oracle; its batches are below
        monkeypatch.setattr(training, "SVAE_BATCH", 1)
        self.assert_epochs_match(REFERENCE_EPOCHS[kind], training._EPOCH_FNS[kind],
                                 kind, mode)

    def ragged_split(self):
        """``small_split``'s shape with 26 training users of 1 to 9 items."""
        split = cycle_split(n_items=8, n_train=26, n_val=4, n_test=4, length=9, seed=3)
        split.train = [UserSequence(s.user_index, s.items[: 1 + (5 * u) % 9])
                       for u, s in enumerate(split.train)]
        return split

    @pytest.mark.parametrize("size", [4, 5])
    @pytest.mark.parametrize("mode", ["next-k-multiset", "mixture"])
    def test_svae_batches_match_the_inline_batched_loop(self, size, mode, monkeypatch):
        # 26 users of 1 to 9 items, so that each batch's recurrence is
        # padded: six full batches of 4 (the default) and one of 2, or five
        # of 5 and one of 1
        monkeypatch.setattr(training, "SVAE_BATCH", size)
        oracle = functools.partial(reference_svae_batch_epoch, size=size)
        self.assert_epochs_match(oracle, training._EPOCH_FNS["svae"], "svae", mode,
                                 self.ragged_split())

    def assert_epochs_match(self, reference_fn, epoch_fn, kind, mode, split=None):
        split = self.small_split() if split is None else split
        cfg = toy_config(batch_size=5, weight_decay=0.01, likelihood_mode=mode)
        runs = []
        for fn in (reference_fn, epoch_fn):
            model = build_model(kind, split.n_items, cfg, n_users=len(split.train))
            rng = np.random.default_rng(11)
            losses = [fn(model, split.train, rng, beta, cfg) for beta in (0.5, 1.0)]
            runs.append((losses, model.store.values.tobytes(), rng.random()))
        assert runs[0] == runs[1]

    def test_best_epoch_restored_from_one_reused_buffer(self, monkeypatch):
        split = self.small_split()
        # epoch 2 scores best, epoch 1 also improves, later epochs do not
        scripted = iter([0.1, 0.4, 0.2, 0.3])
        monkeypatch.setattr(
            training, "evaluate",
            lambda rank_fn, heldout, n_values: EvalReport({"NDCG@100": next(scripted)}, 4),
        )
        after_epoch = []
        epoch_fn = training._EPOCH_FNS["mvae"]

        def recording(model, *args):
            loss = epoch_fn(model, *args)
            after_epoch.append(model.store.values.copy())
            return loss

        monkeypatch.setitem(training._EPOCH_FNS, "mvae", recording)
        buffers = []
        snapshot = ad.ParameterStore.snapshot

        def tracking(store, out=None):
            buffers.append((out, snapshot(store, out=out)))
            return buffers[-1][1]

        monkeypatch.setattr(ad.ParameterStore, "snapshot", tracking)
        model, curve = train("mvae", split, toy_config(epochs=4, batch_size=4))
        assert [s.val_ndcg100 for s in curve] == [0.1, 0.4, 0.2, 0.3]
        assert model.store.values.tobytes() == after_epoch[1].tobytes()
        assert model.store.values.tobytes() != after_epoch[3].tobytes()
        (first_out, first), (second_out, second) = buffers
        assert first_out is None and second_out is first and second is first

    def test_rvae_sampler_skips_user_who_consumed_every_item(self):
        # short histories over a wide catalog: nearly every draw is kept, so
        # one stray draw would shift every later negative
        split = cycle_split(n_items=40, n_train=12, n_val=2, n_test=2, length=5, seed=3)
        others = list(split.train)
        cut = len(others) // 2
        everything = UserSequence(99, tuple(reversed(range(split.n_items))))
        with_full = others[:cut] + [everything] + others[cut:]
        for seed in range(3):
            got = _rvae_triples(with_full, split.n_items, np.random.default_rng(seed))
            want = _rvae_triples(others, split.n_items, np.random.default_rng(seed))
            # rows past the inserted user shift by one
            want[want[:, 0] >= cut, 0] += 1
            np.testing.assert_array_equal(got, want)
        # and training on such a split returns
        split.train = with_full
        _, curve = train("rvae", split, toy_config(epochs=1, batch_size=16))
        assert np.isfinite(curve[0].train_loss)

    def test_rvae_sampler_without_negatives_fails_clearly(self):
        everything = UserSequence(0, tuple(range(5)))
        with pytest.raises(ValueError, match="every item"):
            _rvae_triples([everything], 5, np.random.default_rng(0))

    def test_divergence_reports_epoch(self):
        split = self.small_split()
        cfg = toy_config(epochs=3, learning_rate=1e18)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train("mvae", split, cfg)

    def test_deterministic_autoencoder_loss_decreases(self):
        # beta=0 and zero noise turn the model into a plain autoencoder;
        # 5 epochs on a 20-user toy set must improve monotonically
        split = cycle_split(n_items=10, n_train=20, n_val=4, n_test=4, length=8, seed=9)
        cfg = toy_config(epochs=0, learning_rate=5e-3, batch_size=4)
        model = build_model("mvae", split.n_items, cfg)
        bags = model.bag_matrix([s.items for s in split.train])
        losses = []
        for _ in range(5):
            epoch_total = 0.0
            for lo in range(0, len(bags), cfg.batch_size):
                batch = bags[lo : lo + cfg.batch_size]
                with Tape() as tape:
                    loss = model.loss(batch, np.zeros((len(batch), cfg.latent_dim)), beta=0.0)
                epoch_total += loss.item() * len(batch)
                tape.backward(loss, model.store)
                model.store.adam_step(cfg.learning_rate)
            losses.append(epoch_total / len(bags))
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestLazyEmbeddingTables:
    """Adam steps only the table rows that a training step's lookups read,
    so a row that no step reads keeps its initial values, weight decay
    included."""

    def test_svae_keeps_the_row_of_an_item_no_training_user_consumed(self):
        split = cycle_split(n_items=10, n_train=12, n_val=3, n_test=3, length=6, seed=5)
        unseen = 4
        split.train = [UserSequence(s.user_index, tuple(i for i in s.items if i != unseen))
                       for s in split.train]
        cfg = toy_config(epochs=2, weight_decay=0.01)
        model, _ = train("svae", split, cfg)
        fresh = build_model("svae", split.n_items, cfg)
        rows, initial = model.item_embedding.data, fresh.item_embedding.data
        assert rows[unseen].tobytes() == initial[unseen].tobytes()
        # every other item and the start token were read and moved
        for row in set(range(split.n_items + 1)) - {unseen}:
            assert rows[row].tobytes() != initial[row].tobytes(), row

    def test_rvae_keeps_its_reserved_row(self):
        split = cycle_split(n_items=10, n_train=12, n_val=3, n_test=3, length=6, seed=5)
        cfg = toy_config(epochs=2, weight_decay=0.01, batch_size=8)
        model, _ = train("rvae", split, cfg)
        fresh = build_model("rvae", split.n_items, cfg, n_users=len(split.train))
        reserved = model.unseen_user_row
        assert (model.embedding.data[reserved].tobytes()
                == fresh.embedding.data[reserved].tobytes())
        assert (model.embedding.data[:reserved].tobytes()
                != fresh.embedding.data[:reserved].tobytes())

    def test_mvae_keeps_the_input_row_of_an_item_no_training_user_consumed(self):
        split = cycle_split(n_items=10, n_train=12, n_val=3, n_test=3, length=6, seed=5)
        unseen = 4
        split.train = [UserSequence(s.user_index, tuple(i for i in s.items if i != unseen))
                       for s in split.train]
        cfg = toy_config(epochs=2, weight_decay=0.01, batch_size=4)
        model, _ = train("mvae", split, cfg)
        fresh = build_model("mvae", split.n_items, cfg)
        rows, initial = model.store["encoder.0.w"].data, fresh.store["encoder.0.w"].data
        assert rows[unseen].tobytes() == initial[unseen].tobytes()
        for row in set(range(split.n_items)) - {unseen}:
            assert rows[row].tobytes() != initial[row].tobytes(), row

    def test_svae_padding_steps_no_item_row(self):
        """One step on a padded batch moves only the rows of the items its
        recurrence consumed (each sequence's last item is a target only)
        and the start token, row 8: the padding reads no item's row."""
        cfg = toy_config(weight_decay=0.01)
        model = build_model("svae", 8, cfg)
        initial = model.item_embedding.data.copy()
        noise = np.random.default_rng(0).standard_normal((6, cfg.latent_dim))
        training._step(model, cfg, 0, model.loss, [[3, 4, 5, 6], [2, 7]], noise, 0.5)
        moved = (model.item_embedding.data != initial).any(axis=1)
        assert np.flatnonzero(moved).tolist() == [2, 3, 4, 5, 8]

    @pytest.mark.parametrize("kind, table", [("svae", "item_embedding"),
                                             ("mvae", "encoder.0.w"), ("rvae", "embedding")])
    def test_train_keeps_the_row_of_an_item_only_held_out_users_consumed(self, kind, table):
        """Item 0 occurs only in held-out users, and the training users are
        ragged, so svae's batches are padded: after two epochs item 0's row
        (rvae: its reserved user row) keeps its initial bytes."""
        train_items = [(1, 2, 3, 4, 5, 6, 7, 1, 2), (3, 5), (7, 6, 5, 4, 3, 2), (2, 4, 6),
                       (1, 3, 5, 7, 2, 4, 6), (6, 1)]
        held_out = [(0, 3, 4, 0, 5), (5, 0, 7, 1, 0), (2, 0, 6, 0, 3)]
        split = DatasetSplit(
            [UserSequence(u, items) for u, items in enumerate(train_items)],
            [make_heldout(UserSequence(6 + u, items)) for u, items in enumerate(held_out[:2])],
            [make_heldout(UserSequence(8, held_out[2]))],
            Vocabulary([f"i{i}" for i in range(8)]),
        )
        cfg = toy_config(epochs=2, weight_decay=0.01, batch_size=4)
        model, _ = train(kind, split, cfg)
        fresh = build_model(kind, split.n_items, cfg, n_users=len(split.train))
        row = model.unseen_user_row if kind == "rvae" else 0
        trained, initial = model.store[table].data, fresh.store[table].data
        assert trained[row].tobytes() == initial[row].tobytes()
        assert trained.tobytes() != initial.tobytes()

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_same_seed_same_bytes_with_weight_decay(self, kind):
        split = cycle_split(n_items=10, n_train=12, n_val=3, n_test=3, length=6, seed=5)
        cfg = toy_config(epochs=2, weight_decay=0.01, batch_size=8)
        runs = []
        for _ in range(2):
            model, curve = train(kind, split, cfg)
            store = model.store
            runs.append(([(s.train_loss, s.val_ndcg100) for s in curve], store.values.tobytes(),
                         store._moment1.tobytes(), store._moment2.tobytes(), store.step_count))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind, mode", [("mvae", "next-k-multiset"),
                                            ("rvae", "next-k-multiset"),
                                            ("svae", "next-k-multiset"), ("svae", "mixture")])
    def test_a_training_step_leaves_no_reference_cycle(self, kind, mode):
        # a cycle through the tape would keep every intermediate of a step
        # alive until the cycle collector ran, and raise peak memory
        cfg = toy_config(likelihood_mode=mode, weight_decay=0.01)
        model = build_model(kind, 8, cfg, n_users=3)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((3, cfg.latent_dim))
        if kind == "mvae":
            bags = model.bag_matrix([[0, 2], [1, 5, 7], [3]])
            args = (model.loss, bags, noise, 0.5)
        elif kind == "rvae":
            other = rng.standard_normal((3, cfg.latent_dim))
            args = (model.pair_loss, [0, 1, 2], [1, 2, 3], [4, 5, 6], noise, other, 0.5)
        else:
            args = (model.loss, [[0, 2, 4]], noise, 0.5)
        training._step(model, cfg, 0, *args)
        gc.collect()
        gc.disable()
        try:
            training._step(model, cfg, 1, *args)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSeededInitialisation:
    # sha256 of the parameters in store order as little-endian float64, for
    # build_model(kind, 6, toy_config(), n_users=3, dtype=np.float64); they
    # pin the draws that every same-seed training run and checkpoint start
    # from (a float32 model starts from these values rounded). svae's was
    # re-recorded when the GRU went from nine tensors to four; reordered
    # into the nine-tensor layout, its values still hash to a38dc2ea...
    PINNED = {
        "mvae": "6be9f155cc3922d9830de5f6f0606c9b3e138388b1184b3f7fe7090fc082c47d",
        "rvae": "3d32a12bad74f6d2614644e1f9949fff516f416b99f225c0687c87c443567d23",
        "svae": "642e8dc3b2bfacd2077bf63ad6c6de4cc4a3b175d3fd3d49f118f82473050fb8",
    }

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_parameters_match_pinned_digest(self, kind):
        model = build_model(kind, 6, toy_config(), n_users=3, dtype=np.float64)
        h = hashlib.sha256()
        for _, p in model.store.items():
            h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        assert h.hexdigest() == self.PINNED[kind]

    def test_svae_gru_is_four_tensors_of_six_glorot_blocks(self):
        """The GRU is stored as the recurrence reads it, and its blocks hold
        the draws of the nine-tensor layout: six glorot draws, in the order
        w_reset, u_reset, w_update, u_update, w_cand, u_cand, taken after
        the item embedding from the model's generator."""
        config = toy_config(item_embedding_dim=3, gru_hidden=5)
        model = build_model("svae", 6, config, dtype=np.float64)
        d, hid = 3, 5
        gru = {name: p.data for name, p in model.store.items() if name.startswith("gru.")}
        assert {name: a.shape for name, a in gru.items()} == {
            "gru.w": (d, 3 * hid), "gru.b": (3 * hid,),
            "gru.u_gates": (hid, 2 * hid), "gru.u_cand": (hid, hid)}
        rng = np.random.default_rng(config.seed)
        components.embedding_normal(rng, 7, d)
        w_r, u_r, w_u, u_u, w_c, u_c = (components.glorot_uniform(rng, fan_in, hid)
                                        for _ in range(3) for fan_in in (d, hid))
        blocks = [(gru["gru.w"][:, :hid], w_r), (gru["gru.u_gates"][:, :hid], u_r),
                  (gru["gru.w"][:, hid : 2 * hid], w_u), (gru["gru.u_gates"][:, hid:], u_u),
                  (gru["gru.w"][:, 2 * hid :], w_c), (gru["gru.u_cand"], u_c)]
        for stored, drawn in blocks:
            np.testing.assert_array_equal(stored, drawn)
        np.testing.assert_array_equal(gru["gru.b"], 0.0)


def save_model(base, model):
    vocab = [f"i{i}" for i in range(model.n_items)]
    save_checkpoint(base, model, vocab, "digest", epoch=0, validation_score=None)


class TestCheckpoint:
    def saved(self, tmp_path, kind="svae"):
        model = build_model(kind, 6, toy_config(), n_users=3)
        base = tmp_path / "model"
        save_model(base, model)
        return model, base

    def edit_tensors(self, base, edit):
        path = base.with_suffix(".json")
        manifest = json.loads(path.read_text())
        edit(manifest["tensors"])
        path.write_text(json.dumps(manifest))

    def test_missing_tensor_rejected(self, tmp_path):
        _, base = self.saved(tmp_path)
        self.edit_tensors(base, lambda tensors: tensors.pop(2))
        with pytest.raises(ValueError,
                           match="tensor 2 is 'gru.u_gates', the model expects 'gru.b'"):
            load_checkpoint(base)

    def test_nine_tensor_gru_layout_rejected(self, tmp_path):
        """A checkpoint of the GRU's nine-tensor layout (a weight, state
        weight and bias per gate) has the same blob size and is refused by
        name, not read."""
        _, base = self.saved(tmp_path)

        def nine_tensors(tensors):
            at = next(i for i, t in enumerate(tensors) if t["name"] == "gru.w")
            d, hid = tensors[at]["shape"][0], tensors[at + 3]["shape"][0]
            offset = tensors[at]["offset"]
            del tensors[at : at + 4]
            for gate in ("reset", "update", "cand"):
                for kind, shape in (("w", [d, hid]), ("u", [hid, hid]), ("b", [hid])):
                    size = math.prod(shape)
                    tensors.insert(at, {"name": f"gru.{kind}_{gate}", "shape": shape,
                                        "offset": offset, "size": size})
                    at, offset = at + 1, offset + size

        self.edit_tensors(base, nine_tensors)
        with pytest.raises(ValueError, match="'gru.w_reset', the model expects 'gru.w'"):
            load_checkpoint(base)

    # the two-table layout: svae's start token, and rvae's user rows, once
    # had tables of their own; the blob bytes are the same, the manifest is
    # not, and such a checkpoint is refused rather than read
    TWO_TABLE_LAYOUTS = {
        "svae": ([("item_embedding", 6), ("start_embedding", 1)],
                 r"'item_embedding' has shape \[6, 4\] and size 24, the model expects \[7, 4\]"),
        "rvae": ([("user_embedding", 4), ("item_embedding", 6)],
                 "tensor 0 is 'user_embedding', the model expects 'embedding'"),
    }

    @pytest.mark.parametrize("kind", sorted(TWO_TABLE_LAYOUTS))
    def test_two_table_layout_rejected(self, tmp_path, kind):
        parts, message = self.TWO_TABLE_LAYOUTS[kind]
        _, base = self.saved(tmp_path, kind)

        def two_tables(tensors):
            width = tensors[0]["shape"][1]
            offset = tensors.pop(0)["offset"]
            for at, (name, rows) in enumerate(parts):
                tensors.insert(at, {"name": name, "shape": [rows, width], "offset": offset,
                                    "size": rows * width})
                offset += rows * width

        self.edit_tensors(base, two_tables)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(base)

    # the checkpoint of build_model("mvae", 6, toy_config(), n_users=3) as
    # written while encoder.0.w was a dense weight: each tensor's name, shape
    # and offset, the blob's sha256, and the loaded model's rankings of
    # fold-ins [1, 4] (excluded) and [0]
    MVAE_DENSE_LAYOUT = [
        ("encoder.0.w", [6, 5], 0), ("encoder.0.b", [5], 30), ("encoder.head.mu.w", [5, 3], 35),
        ("encoder.head.mu.b", [3], 50), ("encoder.head.log_sigma.w", [5, 3], 53),
        ("encoder.head.log_sigma.b", [3], 68), ("decoder.0.w", [3, 5], 71),
        ("decoder.0.b", [5], 86), ("decoder.out.0.w", [5, 6], 91), ("decoder.out.0.b", [6], 121)]
    MVAE_DENSE_BLOB = "01af9be02a0f7683b30baa14b7db646591109a962937213c5136ff5199f4ef36"

    def test_mvae_with_a_table_input_keeps_the_dense_checkpoint(self, tmp_path):
        model, base = self.saved(tmp_path, "mvae")
        assert model.store.tables == ("encoder.0.w",)
        manifest = json.loads(base.with_suffix(".json").read_text())
        assert ([(t["name"], t["shape"], t["offset"]) for t in manifest["tensors"]]
                == self.MVAE_DENSE_LAYOUT)
        blob = base.with_suffix(".params").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.MVAE_DENSE_BLOB
        loaded, _ = load_checkpoint(base)
        assert loaded.store.tables == ("encoder.0.w",)
        assert loaded.rank([1, 4], {1, 4}).tolist() == [5, 3, 0, 2]
        assert loaded.rank([0], set()).tolist() == [5, 3, 1, 4, 2, 0]

    def test_missing_last_tensor_rejected(self, tmp_path):
        _, base = self.saved(tmp_path)
        self.edit_tensors(base, lambda tensors: tensors.pop())
        with pytest.raises(ValueError, match="missing tensor 'decoder.out.0.b'"):
            load_checkpoint(base)

    def test_extra_tensor_rejected(self, tmp_path):
        _, base = self.saved(tmp_path)
        extra = {"name": "stray", "shape": [1], "offset": 253, "size": 1}
        self.edit_tensors(base, lambda tensors: tensors.append(extra))
        with pytest.raises(ValueError, match="unexpected tensor 'stray'"):
            load_checkpoint(base)

    def test_wrong_shape_rejected(self, tmp_path):
        _, base = self.saved(tmp_path)

        def transpose(tensors):
            tensors[0]["shape"] = tensors[0]["shape"][::-1]

        self.edit_tensors(base, transpose)
        with pytest.raises(ValueError, match="'item_embedding' has shape"):
            load_checkpoint(base)

    def test_truncated_blob_rejected(self, tmp_path):
        _, base = self.saved(tmp_path)
        blob = base.with_suffix(".params")
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated.*'decoder.out.0.b'"):
            load_checkpoint(base)

    def test_oversized_blob_rejected(self, tmp_path):
        _, base = self.saved(tmp_path)
        blob = base.with_suffix(".params")
        blob.write_bytes(blob.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="8 bytes after its last tensor 'decoder.out.0.b'"):
            load_checkpoint(base)

    MALFORMED_MANIFESTS = {
        "a list": (lambda m: [m], "not a checkpoint manifest"),
        "tensor entry not an object": (
            lambda m: {**m, "tensors": [1] + m["tensors"][1:]}, "field 'tensors'"),
        "config missing": (
            lambda m: {k: v for k, v in m.items() if k != "config"}, "field 'config'"),
        "config null": (lambda m: {**m, "config": None}, "field 'config'"),
        "config value null": (
            lambda m: {**m, "config": {**m["config"], "latent_dim": None}}, "latent_dim"),
        "n_items a string": (lambda m: {**m, "n_items": "6"}, "field 'n_items'"),
        "n_users negative": (lambda m: {**m, "n_users": -1}, "field 'n_users'"),
        "model unknown": (lambda m: {**m, "model": "gru"}, "field 'model'"),
        "vocabulary short": (
            lambda m: {**m, "vocabulary": m["vocabulary"][:-1]}, "field 'vocabulary'"),
        "vocabulary_digest missing": (
            lambda m: {k: v for k, v in m.items() if k != "vocabulary_digest"},
            "field 'vocabulary_digest'"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_names_the_field(self, tmp_path, case):
        edit, message = self.MALFORMED_MANIFESTS[case]
        _, base = self.saved(tmp_path)
        path = base.with_suffix(".json")
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(base)

    def test_huge_layout_rejected_before_allocating(self, tmp_path):
        _, base = self.saved(tmp_path, "rvae")
        path = base.with_suffix(".json")
        path.write_text(json.dumps({**json.loads(path.read_text()), "n_users": 10**12}))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="'embedding' has shape"):
                load_checkpoint(base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, kind):
        model, base = self.saved(tmp_path, kind)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(models.np.random, "default_rng", no_draws)
        loaded, _ = load_checkpoint(base)
        assert loaded.store.values.tobytes() == model.store.values.tobytes()

    def test_load_allocates_little_more_than_the_blob(self, tmp_path):
        cfg = toy_config(encoder_widths=(64,), decoder_widths=(64,), latent_dim=16)
        model = build_model("mvae", 3000, cfg)
        base = tmp_path / "model"
        save_model(base, model)
        blob_bytes = base.with_suffix(".params").stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(base)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parameters once; no random init, gradients or Adam moments
        assert peak < 1.5 * blob_bytes

    def saved_random(self, tmp_path, kind, n_items=40, dtype=np.float32):
        """A saved model at a generic parameter point, and its blob path."""
        model = build_model(kind, n_items, toy_config(), n_users=3, dtype=dtype)
        randomize_params(model, seed=3, scale=1.0)
        base = tmp_path / "model"
        save_model(base, model)
        return model, base, base.with_suffix(".params")

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_mapped_load_matches_a_read_into_load(self, tmp_path, kind):
        for dtype in (np.float32, np.float64):
            model, base, blob = self.saved_random(tmp_path, kind, dtype=dtype)
            oracle = build_model(kind, model.n_items, toy_config(), n_users=3, init=False,
                                 dtype=dtype)
            oracle.store.values[...] = np.fromfile(blob, dtype=np.dtype(dtype).newbyteorder("<"))
            loaded, _ = load_checkpoint(base)
            values = loaded.store.values
            assert values.dtype == dtype
            assert type(values) is np.ndarray and isinstance(values.base.obj, mmap.mmap)
            assert values.tobytes() == oracle.store.values.tobytes()
            rng = np.random.default_rng(4)
            fold_ins = [list(rng.choice(40, size=int(rng.integers(2, 9)))) for _ in range(7)]
            assert (loaded.score_batch(fold_ins).tobytes()
                    == oracle.score_batch(fold_ins).tobytes())

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_a_loaded_model_that_only_scores_allocates_no_gradients(self, tmp_path, kind):
        _, base, _ = self.saved_random(tmp_path, kind)
        loaded, _ = load_checkpoint(base)
        loaded.score_batch([[0, 3, 5], [7]])
        loaded.scores([2, 9])
        assert loaded.store.grads is None
        assert all(p.grad is None for _, p in loaded.store.items())
        with pytest.raises(ValueError, match="no gradient"):
            loaded.store.adam_step(lr=0.1)

    @pytest.mark.parametrize("kind", ["mvae", "rvae", "svae"])
    def test_writes_to_a_loaded_arena_leave_the_file_unchanged(self, tmp_path, kind):
        model, base, blob = self.saved_random(tmp_path, kind)
        digest = hashlib.sha256(blob.read_bytes()).hexdigest()
        loaded, _ = load_checkpoint(base)
        store = loaded.store
        store.values[...] = 0.25
        # a step that looks up every row of every table, so that Adam writes
        # every value of the arena
        with Tape() as tape:
            loss = functools.reduce(ad.add, [
                ad.sum_all(ad.embedding_lookup(store[name], np.arange(store[name].shape[0])))
                for name in store.tables], Tensor(0.0))
        tape.backward(loss, store)
        store.grads[...] = 1.0
        store.adam_step(lr=0.1)
        assert np.all(store.values != 0.25)
        del loaded
        assert hashlib.sha256(blob.read_bytes()).hexdigest() == digest
        again, _ = load_checkpoint(base)
        assert again.store.values.tobytes() == model.store.values.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc")
    def test_dropping_a_loaded_model_releases_its_file_and_mapping(self, tmp_path):
        _, base, blob = self.saved_random(tmp_path, "svae")
        path = os.path.realpath(blob)

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def mappings():
            with open("/proc/self/maps", encoding="utf-8") as fh:
                return sum(line.rstrip("\n").endswith(path) for line in fh)

        fds = open_fds()
        loaded, _ = load_checkpoint(base)
        loaded.scores([1, 2])
        assert mappings() == 1
        del loaded
        assert (open_fds(), mappings()) == (fds, 0)

    def test_blob_shortened_after_the_size_check_fails_clearly(self, tmp_path, monkeypatch):
        _, base, blob = self.saved_random(tmp_path, "svae")
        check_size = checkpoint_module._check_blob_size

        def check_then_truncate(n_bytes, layout, itemsize):
            check_size(n_bytes, layout, itemsize)
            os.truncate(blob, n_bytes - itemsize)

        monkeypatch.setattr(checkpoint_module, "_check_blob_size", check_then_truncate)
        with pytest.raises(ValueError, match="changed while being read"):
            load_checkpoint(base)

    def test_roundtrip_bit_identical(self, tmp_path):
        split = cycle_split(n_items=8, n_train=10, n_val=3, n_test=3, length=6, seed=1)
        cfg = toy_config(epochs=1)
        model, curve = train("svae", split, cfg)
        base = tmp_path / "model"
        save_checkpoint(
            base, model, split.vocabulary.raw_ids(), split.vocabulary.digest(),
            epoch=1, validation_score=curve[-1].val_ndcg100,
        )
        loaded, manifest = load_checkpoint(base)
        assert manifest["model"] == "svae"
        assert manifest["vocabulary"] == split.vocabulary.raw_ids()
        for name, p in model.store.items():
            np.testing.assert_array_equal(p.data, loaded.store[name].data)
        # same ranking behaviour after reload
        fold_in = list(split.test[0].fold_in)
        np.testing.assert_array_equal(
            model.rank(fold_in, set(fold_in)), loaded.rank(fold_in, set(fold_in))
        )
