import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaerec import autodiff as ad
from vaerec.autodiff import (
    GRUParams,
    ParameterStore,
    ShapeError,
    Tape,
    Tensor,
    gradient_check,
    gru_cell,
    gru_sequence,
    linear,
    log_softmax,
)


def make_gru_params(store, in_dim, hid, rng=None, prefix="gru"):
    def init(name, *shape):
        values = np.zeros(shape) if rng is None else rng.uniform(-0.5, 0.5, size=shape)
        return store.add(f"{prefix}.{name}", values)

    return GRUParams(w=init("w", in_dim, 3 * hid), b=init("b", 3 * hid),
                     u_gates=init("u_gates", hid, 2 * hid), u_cand=init("u_cand", hid, hid))


class TestLinear:
    def test_identity(self):
        y = linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(y.data, [[1.0, 2.0]])

    def test_hand_matmul(self):
        y = linear(Tensor([[1.0, 1.0]]), Tensor([[2.0], [3.0]]), Tensor([1.0]))
        np.testing.assert_array_equal(y.data, [[6.0]])

    def test_zero_input_passes_bias(self):
        y = linear(Tensor([[0.0, 0.0]]), Tensor(np.ones((2, 2))), Tensor([5.0, 5.0]))
        np.testing.assert_array_equal(y.data, [[5.0, 5.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 2\)"):
            linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))


class TestBagLinear:
    """``bag_linear`` is ``linear``, plus the rows of the weight that the
    bags read, kept on the tape for the store."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_and_record_as_linear(self, dtype):
        rng = np.random.default_rng(3)
        bags = (rng.random((4, 9)) < 0.4).astype(dtype)
        bags[:, [0, 5]] = 0.0
        w0, b0, probe = rng.normal(size=(9, 6)), rng.normal(size=6), rng.normal(size=(4, 6))
        runs = []
        for layer in (linear, ad.bag_linear):
            store = ParameterStore(dtype)
            w, b = store.add("w", w0, table=True), store.add("b", b0)
            with Tape() as tape:
                out = layer(Tensor(bags), w, b, tanh=True)
                records = len(tape)
                loss = ad.sum_all(ad.mul(out, Tensor(probe.astype(dtype))))
            tape.backward(loss, store)
            runs.append((out.data.tobytes(), loss.data.tobytes(), store.grads.tobytes(), records))
        assert runs[0] == runs[1] and runs[0][3] == 1
        # the rows the store keeps for Adam are the bags' nonzero columns
        np.testing.assert_array_equal(store._tables["w"], np.flatnonzero(bags.any(axis=0)))
        assert not {0, 5} & set(store._tables["w"].tolist())

    def test_without_a_tape_it_is_linear(self):
        rng = np.random.default_rng(4)
        bags = Tensor((rng.random((3, 5)) < 0.5).astype(float))
        w, b = Tensor(rng.normal(size=(5, 2))), Tensor(rng.normal(size=2))
        assert ad.bag_linear(bags, w, b).data.tobytes() == linear(bags, w, b).data.tobytes()


class TestGRUCell:
    def test_zero_params_halve_state(self):
        store = ParameterStore()
        p = make_gru_params(store, 3, 4)
        h = np.array([[0.2, -1.0, 3.0, 0.5]])
        out = gru_cell(Tensor(np.zeros((1, 3))), Tensor(h), p)
        np.testing.assert_array_equal(out.data, 0.5 * h)

    def test_update_gate_saturated_off(self):
        # update bias very negative -> u ~ 0 -> h' ~ tanh(candidate bias)
        store = ParameterStore()
        p = make_gru_params(store, 2, 2)
        p.b.data[2:4] = -50.0
        p.b.data[4:] = np.array([0.3, -1.2])
        out = gru_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), p)
        np.testing.assert_allclose(out.data, np.tanh([[0.3, -1.2]]), atol=1e-15)

    def test_all_zero(self):
        store = ParameterStore()
        p = make_gru_params(store, 2, 2)
        out = gru_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), p)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_batch_mismatch(self):
        store = ParameterStore()
        p = make_gru_params(store, 2, 2)
        with pytest.raises(ShapeError):
            gru_cell(Tensor(np.zeros((1, 2))), Tensor(np.zeros((3, 2))), p)


def sequence_loss(x, h0, p, probe):
    """``gru_sequence``'s [T, H] states and sum(states * probe)."""
    out = gru_sequence(x, h0, p)
    return out.data, ad.sum_all(ad.mul(out, probe))


def composed_loss(x, h0, p, probe):
    """The oracle: chained ``gru_cell`` steps, each state summed against its
    probe row; the states stacked into [T, H], and the sum of those sums."""
    h, states, terms = h0, [], []
    for t in range(x.shape[0]):
        h = gru_cell(ad.embedding_lookup(x, [t]), h, p)
        states.append(h.data)
        terms.append(ad.sum_all(ad.mul(h, Tensor(probe.data[[t]]))))
    return np.concatenate(states), functools.reduce(ad.add, terms)


def run_with_grads(forward, store, x, h0, p, probe):
    """The states and loss from ``forward`` (``sequence_loss`` or
    ``composed_loss``): the states, the loss's grads for every tensor in
    ``store``, and the tape length."""
    with Tape() as tape:
        out, loss = forward(x, h0, p, probe)
    tape.backward(loss, store)
    grads = {name: t.grad.copy() for name, t in store.items()}
    return out, grads, len(tape)


class TestGRUSequence:
    def make(self, steps, in_dim, hid, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore(np.float64)
        p = make_gru_params(store, in_dim, hid, rng=rng)
        x = store.add("x", rng.normal(size=(steps, in_dim)))
        h0 = store.add("h0", rng.normal(size=(1, hid)))
        probe = Tensor(rng.normal(size=(steps, hid)))
        return store, p, x, h0, probe

    def test_zero_params_halve_state_each_step(self):
        store = ParameterStore()
        p = make_gru_params(store, 3, 4)
        h0 = np.array([[0.2, -1.0, 3.0, 0.5]])
        out = gru_sequence(Tensor(np.ones((3, 3))), Tensor(h0), p)
        np.testing.assert_array_equal(out.data, h0 * np.array([[0.5], [0.25], [0.125]]))

    def test_one_tape_record_per_sequence(self):
        store, p, x, h0, probe = self.make(9, 3, 4, seed=0)
        *_, records = run_with_grads(sequence_loss, store, x, h0, p, probe)
        # gru_sequence, mul, sum_all
        assert records == 3

    @pytest.mark.parametrize("steps", [1, 6])
    def test_gradient_check(self, steps):
        store, p, x, h0, probe = self.make(steps, 3, 4, seed=steps)
        err = gradient_check(
            lambda: ad.sum_all(ad.mul(gru_sequence(x, h0, p), probe)), store, epsilon=1e-5
        )
        assert err < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.integers(1, 12),
        in_dim=st.integers(1, 6),
        hid=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_composed_cell(self, steps, in_dim, hid, seed):
        store, p, x, h0, probe = self.make(steps, in_dim, hid, seed)
        out, grads, _ = run_with_grads(sequence_loss, store, x, h0, p, probe)
        want, want_grads, _ = run_with_grads(composed_loss, store, x, h0, p, probe)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
        for name, grad in want_grads.items():
            np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-12, err_msg=name)

    def test_empty_sequence(self):
        store, p, _, h0, _ = self.make(1, 3, 4, seed=0)
        x = store.add("empty", np.zeros((0, 3)))
        out, grads, _ = run_with_grads(sequence_loss, store, x, h0, p, Tensor(np.zeros((0, 4))))
        assert out.shape == (0, 4)
        assert all(not grad.any() for grad in grads.values())

    def test_input_width_mismatch(self):
        store = ParameterStore()
        p = make_gru_params(store, 2, 3)
        with pytest.raises(ShapeError, match="inputs"):
            gru_sequence(Tensor(np.zeros((4, 5))), Tensor(np.zeros((1, 3))), p)

    def test_state_width_mismatch(self):
        store = ParameterStore()
        p = make_gru_params(store, 2, 3)
        with pytest.raises(ShapeError, match="h0"):
            gru_sequence(Tensor(np.zeros((4, 2))), Tensor(np.zeros((1, 5))), p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_gates_raise_no_floating_point_error(self, dtype):
        # pre-activations of +-1e4 (w is the identity and b zero, so they
        # are the inputs): the gates saturate at exactly 0 or 1, with no
        # overflow or underflow on the way, forward or backward
        rng = np.random.default_rng(5)
        steps, rows, hid = 4, 3, 5
        store = ParameterStore(dtype)
        p = make_gru_params(store, 3 * hid, hid, rng=rng)
        p.w.data[...] = np.eye(3 * hid)
        p.b.data[...] = 0.0
        signs = rng.choice([-1.0, 1.0], size=(steps * rows, 3 * hid))
        x = Tensor((1e4 * signs).astype(dtype), requires_grad=True)
        h0 = Tensor(rng.uniform(-1, 1, size=(rows, hid)).astype(dtype), requires_grad=True)
        with np.errstate(all="raise"), Tape() as tape:
            out = gru_sequence(x, h0, p)
            loss = ad.sum_all(out)
            tape.backward(loss, store)
        # the forward's saved buffers, read from the backward closure
        backward = tape._records[0][1]
        saved = dict(zip(backward.__code__.co_freevars,
                         (cell.cell_contents for cell in backward.__closure__)))
        gates = saved["gates"].reshape(steps * rows, 2 * hid)
        assert ((gates >= 0) & (gates <= 1)).all()
        np.testing.assert_array_equal(gates, signs[:, : 2 * hid] > 0)
        assert np.isfinite(out.data).all()
        for grad in (x.grad, h0.grad, store.grads):
            assert np.isfinite(grad).all()

    @pytest.mark.parametrize("rows, h0_rows", [(5, 2), (4, 0)], ids=["not_a_multiple", "empty"])
    def test_h0_rows_must_divide_the_input_rows(self, rows, h0_rows):
        store = ParameterStore()
        p = make_gru_params(store, 2, 3)
        with pytest.raises(ShapeError, match="h0"):
            gru_sequence(Tensor(np.zeros((rows, 2))), Tensor(np.zeros((h0_rows, 3))), p)


def one_row_call(p, store, x_row, h0_row, probe_row):
    """One sequence through the 2-D form: its states, the grads of
    sum(states * probe) for ``store``'s GRU tensors, and the input and h0
    grads."""
    x = Tensor(x_row, requires_grad=True)
    h0 = Tensor(h0_row, requires_grad=True)
    with Tape() as tape:
        out = gru_sequence(x, h0, p)
        loss = ad.sum_all(ad.mul(out, Tensor(probe_row)))
    tape.backward(loss, store)
    grads = {name: t.grad.copy() for name, t in store.items() if name.startswith("gru.")}
    return out.data, grads, x.grad, h0.grad


class TestBatchedGRUSequence:
    def make(self, lengths, in_dim, hid, seed):
        """B sequences of the given lengths, right-padded into the step-major
        rows of x [T * B, d], with x and h0 [B, H] held as parameters, and a
        probe that is zero at every padded step, so a loss of
        sum(out * probe) sees real steps only."""
        rng = np.random.default_rng(seed)
        store = ParameterStore(np.float64)
        p = make_gru_params(store, in_dim, hid, rng=rng)
        steps, rows = max(lengths), len(lengths)
        x = store.add("x", rng.normal(size=(steps, rows, in_dim)).reshape(-1, in_dim))
        h0 = store.add("h0", rng.normal(size=(rows, hid)))
        real = np.arange(steps)[:, None] < np.array(lengths)[None, :]
        probe = Tensor((rng.normal(size=(steps, rows, hid)) * real[..., None]).reshape(-1, hid))
        return store, p, x, h0, probe

    def test_gradient_check_ragged(self):
        store, p, x, h0, probe = self.make([5, 2, 1, 4], 3, 4, seed=3)
        err = gradient_check(
            lambda: ad.sum_all(ad.mul(gru_sequence(x, h0, p), probe)), store, epsilon=1e-5
        )
        assert err < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 8), min_size=1, max_size=5),
        in_dim=st.integers(1, 5),
        hid=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_matches_its_one_sequence_call(self, lengths, in_dim, hid, seed):
        store, p, x, h0, probe = self.make(lengths, in_dim, hid, seed)
        out, grads, records = run_with_grads(sequence_loss, store, x, h0, p, probe)
        steps, rows = max(lengths), len(lengths)
        assert out.shape == (steps * rows, hid)
        assert records == 3
        out = out.reshape(steps, rows, hid)
        x_data = x.data.reshape(steps, rows, in_dim)
        probe_data = probe.data.reshape(steps, rows, hid)
        x_grads = grads["x"].reshape(steps, rows, in_dim)
        summed = {name: np.zeros_like(g) for name, g in grads.items() if name.startswith("gru.")}
        for b, n in enumerate(lengths):
            want, want_grads, x_grad, h0_grad = one_row_call(
                p, store, x_data[:n, b], h0.data[b : b + 1], probe_data[:n, b])
            np.testing.assert_allclose(out[:n, b], want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(x_grads[:n, b], x_grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grads["h0"][b : b + 1], h0_grad, rtol=0, atol=1e-12)
            for name, grad in want_grads.items():
                summed[name] += grad
        # padded steps come after every real step of their row: no gradient
        assert not x_grads[np.arange(steps)[:, None] >= np.array(lengths)].any()
        for name, grad in summed.items():
            np.testing.assert_allclose(grads[name], grad, rtol=0, atol=1e-12, err_msg=name)

    def test_h0_rows_must_match_the_batch(self):
        store = ParameterStore()
        p = make_gru_params(store, 2, 3)
        with pytest.raises(ShapeError,
                           match=r"h0 must be \[B, 3\] with B >= 1 dividing the 20 input rows, "
                                 r"got \(3, 3\)"):
            gru_sequence(Tensor(np.zeros((20, 2))), Tensor(np.zeros((3, 3))), p)

    @pytest.mark.parametrize("shape", [(2,), (5, 4, 2)])
    def test_inputs_must_be_two_dimensional(self, shape):
        store = ParameterStore()
        p = make_gru_params(store, 2, 3)
        with pytest.raises(ShapeError, match="inputs"):
            gru_sequence(Tensor(np.zeros(shape)), Tensor(np.zeros((1, 3))), p)


class TestLogSoftmax:
    def test_uniform(self):
        out = log_softmax(np.array([[7.0, 7.0, 7.0, 7.0]]))
        np.testing.assert_allclose(out, np.full((1, 4), -np.log(4.0)), atol=1e-15)

    def test_extreme_logits_stay_finite(self):
        out = log_softmax(np.array([[0.0, 1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[-1000.0, 0.0]], atol=1e-12)

    def test_single_category(self):
        out = log_softmax(np.array([[123.0]]))
        np.testing.assert_array_equal(out, [[0.0]])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-300, 300), min_size=1, max_size=8),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_normalize(self, rows):
        out = log_softmax(np.asarray(rows))
        np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)


class TestLogSoftmaxAt:
    """``log_softmax_at`` against the dense log softmax it indexes, and by
    central differences."""

    rng = np.random.default_rng(5)

    def test_entries_of_the_dense_log_softmax(self):
        x = self.rng.normal(size=(3, 6)) * 20.0
        rows = np.array([[0], [2], [1]])
        cols = np.array([[5, 0, 0, 3]])
        out = ad.log_softmax_at(Tensor(x), rows, cols)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.data, log_softmax(x)[rows, cols])

    def test_one_tape_record(self):
        store = ParameterStore()
        logits = store.add("logits", self.rng.normal(size=(4, 8)))
        with Tape() as tape:
            ad.log_softmax_at(logits, [0, 3, 3], [1, 1, 7])
        assert len(tape) == 1

    def test_gradient_with_repeated_pairs(self):
        store = ParameterStore(np.float64)
        logits = store.add("logits", self.rng.normal(size=(4, 8)))
        rows, cols = [0, 2, 2, 2, 3, 0], [5, 1, 1, 1, 0, 5]
        probe = Tensor(self.rng.normal(size=6))
        _check(lambda: ad.sum_all(ad.mul(ad.log_softmax_at(logits, rows, cols), probe)),
               store, tol=1e-6)

    def test_gradient_with_broadcast_index_arrays(self):
        store = ParameterStore(np.float64)
        logits = store.add("logits", self.rng.normal(size=(5, 7)))
        rows = np.array([[0], [4], [4]])
        cols = np.array([[6, 1, 1, 0]])
        probe = Tensor(self.rng.normal(size=(3, 4)))
        _check(lambda: ad.sum_all(ad.mul(ad.log_softmax_at(logits, rows, cols), probe)),
               store, tol=1e-6)

    def test_gradient_through_a_masked_logsumexp(self):
        # the mixture likelihood's shape: windows over earlier rows, the
        # clamped ones masked to -inf before the log-sum-exp
        store = ParameterStore(np.float64)
        logits = store.add("logits", self.rng.normal(size=(4, 6)))
        back = np.arange(4)[:, None] + np.arange(3) - 2
        ids = np.array([[3], [0], [5], [3]])
        mask = Tensor(np.where(back >= 0, 0.0, -np.inf))

        def loss_fn():
            window = ad.log_softmax_at(logits, np.maximum(back, 0), ids)
            return ad.sum_all(ad.logsumexp_rows(ad.add(window, mask)))

        _check(loss_fn, store, tol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.sampled_from(["pairs", "repeats", "windows"]),
           st.booleans(), st.sampled_from(["C", "F"]), st.integers(0, 2**32 - 1))
    def test_scatter_matches_two_array_add_at(self, n_rows, n_items, kind, negative, order,
                                              seed):
        # the oracle: np.add.at on the (rows, cols) pair of index arrays,
        # into a C-ordered array whatever the order of the logits
        rng = np.random.default_rng(seed)
        x = np.asarray(rng.normal(size=(n_rows, n_items)) * 5.0, order=order)
        if kind == "pairs":
            size = int(rng.integers(0, 20))
            rows, cols = rng.integers(n_rows, size=size), rng.integers(n_items, size=size)
        elif kind == "repeats":
            rows = np.repeat(rng.integers(n_rows, size=3), 4)
            cols = np.repeat(rng.integers(n_items, size=3), 4)
        else:
            # the mixture likelihood's broadcast [T, k] windows
            k = int(rng.integers(1, 4))
            rows = np.maximum(np.arange(n_rows)[:, None] + np.arange(k) - (k - 1), 0)
            cols = rng.integers(n_items, size=(n_rows, 1))
        if negative:
            # x[r, c] reads negative indices from the end
            rows, cols = rows - n_rows, cols - n_items
        logits = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = ad.log_softmax_at(logits, rows, cols)
        g = rng.normal(size=out.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        want = np.zeros(x.shape)
        np.add.at(want, (rows, cols), g)
        want -= np.exp(x - ad._log_sum_exp(x)) * want.sum(axis=1, keepdims=True)
        out.grad = g
        for o, rule in reversed(tape._records):
            rule(o.grad)
        # a gradient not yet started is a zero array plus the scatter
        assert logits.grad.tobytes() == (np.zeros_like(x) + want).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_f_ordered_logits_give_the_c_ordered_gradient(self, dtype):
        """The gradient is scattered and summed in a C-ordered array, so the
        logits' memory order does not reach its bytes (a row sum over an
        F-ordered array adds in another order)."""
        x = (self.rng.normal(size=(5, 40)) * 5.0).astype(dtype)
        rows, cols = self.rng.integers(5, size=30), self.rng.integers(40, size=30)
        g = self.rng.normal(size=30).astype(dtype)
        grads = []
        for data in (np.ascontiguousarray(x), np.asfortranarray(x)):
            logits = Tensor(data, requires_grad=True)
            with Tape() as tape:
                out = ad.log_softmax_at(logits, rows, cols)
            out.grad = g
            for o, rule in reversed(tape._records):
                rule(o.grad)
            grads.append(logits.grad.tobytes())
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
    def test_logits_must_be_two_dimensional(self, shape):
        with pytest.raises(ShapeError, match="log_softmax_at"):
            ad.log_softmax_at(Tensor(np.zeros(shape)), [0], [0])


class TestEmbedding:
    def test_row_gather(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, [2])
        np.testing.assert_array_equal(out.data, [[6.0, 7.0, 8.0]])

    def test_duplicate_ids_accumulate(self):
        store = ParameterStore()
        table = store.add("emb", np.arange(8.0).reshape(4, 2))
        with Tape() as tape:
            loss = ad.sum_all(ad.embedding_lookup(table, [1, 1]))
        tape.backward(loss, store)
        expected = np.zeros((4, 2))
        expected[1] = 2.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_id_pairs_gather_rows_side_by_side(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, [[2, 0], [1, 1]])
        np.testing.assert_array_equal(out.data, [[6.0, 7.0, 8.0, 0.0, 1.0, 2.0],
                                                 [3.0, 4.0, 5.0, 3.0, 4.0, 5.0]])

    def test_empty_ids(self):
        out = ad.embedding_lookup(Tensor(np.ones((4, 3))), [])
        assert out.shape == (0, 3)
        out = ad.embedding_lookup(Tensor(np.ones((4, 3))), np.zeros((0, 2), dtype=np.int64))
        assert out.shape == (0, 6)

    def test_out_of_range(self):
        with pytest.raises(IndexError, match="7"):
            ad.embedding_lookup(Tensor(np.ones((4, 3))), [0, 7])

    def test_gradient_mass_conserved(self):
        rng = np.random.default_rng(3)
        store = ParameterStore(np.float64)
        table = store.add("emb", rng.normal(size=(6, 4)))
        weights = Tensor(rng.normal(size=(5, 4)))
        ids = [0, 2, 2, 5, 1]
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.embedding_lookup(table, ids), weights))
        tape.backward(loss, store)
        np.testing.assert_allclose(table.grad.sum(), weights.data.sum(), atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 12), st.integers(0, 3),
           st.sampled_from([None, "C", "F"]), st.integers(0, 2**32 - 1))
    def test_scatter_matches_row_add_at(self, rows, width, n_ids, k, start, seed):
        # the oracle: np.add.at over rows, into the gradient as it stands
        # (none yet, a C-ordered one or a Fortran-ordered one); k > 0 looks
        # up [n_ids, k] ids, whose output is [n_ids, k * width]
        rng = np.random.default_rng(seed)
        table = Tensor(rng.normal(size=(rows, width)), requires_grad=True)
        ids = rng.integers(rows, size=(n_ids, k) if k else n_ids)
        g = rng.normal(size=ids.shape + (width,))
        g[rng.random(g.shape) < 0.3] = -0.0
        grad = None if start is None else np.asarray(rng.normal(size=(rows, width)), order=start)
        want = np.zeros((rows, width)) if grad is None else grad.copy()
        np.add.at(want, ids, g)
        g = g.reshape(n_ids, max(k, 1) * width)
        table.grad = grad
        with Tape() as tape:
            out = ad.embedding_lookup(table, ids)
        out.grad = g
        for o, rule in reversed(tape._records):
            rule(o.grad)
        assert table.grad.tobytes() == want.tobytes()


class TestBackward:
    def test_square(self):
        store = ParameterStore()
        w = store.add("w", np.array([3.0]))
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(w, w))
        tape.backward(loss, store)
        np.testing.assert_allclose(w.grad, [6.0])

    def test_bias_grad_is_ones(self):
        store = ParameterStore()
        w = store.add("w", np.ones((2, 3)))
        b = store.add("b", np.zeros(3))
        with Tape() as tape:
            loss = ad.sum_all(linear(Tensor([[0.5, -0.5]]), w, b))
        tape.backward(loss, store)
        np.testing.assert_array_equal(b.grad, np.ones(3))

    def test_detached_parameter_gets_zero(self):
        store = ParameterStore()
        w = store.add("w", np.array([2.0]))
        unused = store.add("unused", np.array([4.0]))
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(w, w))
        tape.backward(loss, store)
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_non_scalar_loss_rejected(self):
        store = ParameterStore()
        w = store.add("w", np.ones(3))
        with Tape() as tape:
            out = ad.mul(w, w)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(out, store)

    def test_loss_not_on_tape_rejected(self):
        store = ParameterStore()
        w = store.add("w", np.array([1.0]))
        with Tape():
            pass
        with Tape() as other:
            loss = ad.sum_all(ad.mul(w, w))
        del other
        with Tape() as fresh:
            pass
        with pytest.raises(ValueError, match="tape"):
            fresh.backward(loss, store)

    def test_second_backward_raises_and_keeps_the_first_grads(self):
        store = ParameterStore()
        w = store.add("w", np.array([3.0, -1.0]))
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.tanh(w), w))
        tape.backward(loss, store)
        first = store.grads.tobytes()
        with pytest.raises(RuntimeError, match="already ran"):
            tape.backward(loss, store)
        assert store.grads.tobytes() == first
        assert len(tape) == 3

    def test_backward_deterministic(self):
        rng = np.random.default_rng(0)
        init = rng.normal(size=(4, 4))
        x = rng.normal(size=(2, 4))
        grads = []
        for _ in range(2):
            store = ParameterStore()
            w = store.add("w", init.copy())
            b = store.add("b", np.zeros(4))
            with Tape() as tape:
                h = ad.tanh(linear(Tensor(x), w, b))
                loss = ad.sum_all(ad.mul(h, h))
            tape.backward(loss, store)
            grads.append((w.grad.copy(), b.grad.copy()))
        np.testing.assert_array_equal(grads[0][0], grads[1][0])
        np.testing.assert_array_equal(grads[0][1], grads[1][1])


def backward_with(store, **grads):
    """One backward pass of the sum of p * g over the named parameters, so
    that each one's grad reads exactly its g and every other one's zero."""
    with Tape() as tape:
        terms = [ad.sum_all(ad.mul(store[name], Tensor(g))) for name, g in grads.items()]
        loss = functools.reduce(ad.add, terms, Tensor(0.0))
    tape.backward(loss, store)


class TestAdam:
    def test_first_step_matches_closed_form(self):
        store = ParameterStore(np.float64)
        w = store.add("w", np.array([1.0]))
        backward_with(store, w=[0.5])
        store.adam_step(lr=1e-3)
        delta = w.data[0] - 1.0
        assert abs(delta + 1e-3 * 0.5 / (0.5 + 1e-8)) < 1e-9

    def test_zero_grad_no_move(self):
        store = ParameterStore()
        w = store.add("w", np.array([1.0]))
        backward_with(store)
        store.adam_step(lr=1e-3)
        np.testing.assert_array_equal(w.data, [1.0])

    def test_weight_decay_shrinks(self):
        store = ParameterStore()
        w = store.add("w", np.array([1.0]))
        backward_with(store)
        store.adam_step(lr=1e-3, weight_decay=0.01)
        assert w.data[0] < 1.0

    def test_missing_grad_rejected(self):
        store = ParameterStore()
        store.add("w", np.array([1.0]))
        with pytest.raises(ValueError, match="no gradient"):
            store.adam_step(lr=1e-3)

    def test_step_counter_shared(self):
        store = ParameterStore()
        a = store.add("a", np.ones(2))
        b = store.add("b", np.ones(3))
        for expected in (1, 2, 3):
            backward_with(store, a=np.ones(2), b=np.ones(3))
            store.adam_step(lr=1e-3)
            assert store.step_count == expected
        assert a.data[0] < 1.0 and b.data[0] < 1.0

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.ones(1))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.ones(1))


def reference_adam(params, grads, m1, m2, t, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                   weight_decay=0.0):
    """The per-tensor Adam update the arena's vector update replaced, kept
    as its oracle: same operations, same order, one tensor at a time."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name] if weight_decay == 0.0 else grads[name] + weight_decay * p
        m = m1[name]
        v = m2[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


class TestParameterArena:
    def make_store(self):
        rng = np.random.default_rng(5)
        store = ParameterStore()
        # 36000 values: the vector update runs over more than one chunk
        w = store.add("w", rng.normal(size=(180, 200)))
        b = store.add("b", rng.normal(size=200))
        store.add("unused", rng.normal(size=(3, 2)))
        return store, w, b

    def train_steps(self, store, w, b, steps, seed=6):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            with Tape() as tape:
                loss = ad.sum_all(ad.tanh(linear(Tensor(rng.normal(size=(4, 180))), w, b)))
            tape.backward(loss, store)
            yield {name: p.grad.copy() for name, p in store.items()}
            store.adam_step(lr=1e-2, weight_decay=0.01)

    def test_parameters_are_views_of_one_vector(self):
        store, w, b = self.make_store()
        assert store.values.shape == (store.n_values(),)
        for name, shape, offset in store.layout():
            view = store[name].data
            assert view.shape == shape
            assert np.shares_memory(view, store.values)
            assert view.reshape(-1)[0] == store.values[offset]

    def test_adam_matches_per_tensor_reference(self):
        store, w, b = self.make_store()
        params = {name: p.data.copy() for name, p in store.items()}
        m1 = {name: np.zeros_like(p) for name, p in params.items()}
        m2 = {name: np.zeros_like(p) for name, p in params.items()}
        for t, grads in enumerate(self.train_steps(store, w, b, steps=5), start=1):
            assert not grads["unused"].any()
            reference_adam(params, grads, m1, m2, t, lr=1e-2, weight_decay=0.01)
        for name, p in store.items():
            assert p.data.tobytes() == params[name].tobytes(), name
        # the zero-gradient parameter still moved, by weight decay alone
        assert store["unused"].data.tobytes() != self.make_store()[0]["unused"].data.tobytes()

    def test_gradients_are_fixed_views_of_one_vector(self):
        store, w, b = self.make_store()
        assert store.grads is None and w.grad is None
        steps = self.train_steps(store, w, b, steps=3)
        next(steps)
        vector = store.grads
        assert vector.shape == store.values.shape
        views = {name: p.grad for name, p in store.items()}
        for name, shape, offset in store.layout():
            assert views[name].shape == shape
            assert np.shares_memory(views[name], vector)
            views[name].reshape(-1)[0] = 7.0
            assert vector[offset] == 7.0
        for _ in steps:
            assert store.grads is vector
            assert all(p.grad is views[name] for name, p in store.items())
        assert store.grads is vector and w.grad is views["w"]

    def test_a_parameter_the_next_backward_misses_reads_zero(self):
        store = ParameterStore(np.float64)
        w = store.add("w", np.array([1.0, -2.0]))
        v = store.add("v", np.array([[3.0], [0.5]]))
        backward_with(store, w=[0.5, 0.25], v=[[2.0], [-1.0]])
        store.adam_step(lr=0.1, weight_decay=0.01)
        assert v.grad.all()
        backward_with(store, w=[1.0, 1.0])
        assert v.grad.tobytes() == np.zeros((2, 1)).tobytes()
        assert w.grad.tobytes() == np.ones(2).tobytes()

    def test_snapshot_then_restore_gives_back_exact_bytes(self):
        store, w, b = self.make_store()
        steps = self.train_steps(store, w, b, steps=6)
        for _ in range(2):
            next(steps)
        snap = store.snapshot()
        saved = store.values.tobytes()
        for _ in steps:
            pass
        assert store.values.tobytes() != saved
        store.restore(snap)
        assert store.values.tobytes() == saved
        assert np.shares_memory(w.data, store.values)

    def test_snapshot_into_a_buffer_reuses_it(self):
        store, w, b = self.make_store()
        steps = self.train_steps(store, w, b, steps=3)
        next(steps)
        buffer = store.snapshot()
        for _ in steps:
            pass
        assert buffer.tobytes() != store.values.tobytes()
        assert store.snapshot(out=buffer) is buffer
        assert buffer.tobytes() == store.values.tobytes()
        assert not np.shares_memory(buffer, store.values)
        with pytest.raises(ValueError, match="shape"):
            store.snapshot(out=np.empty(store.n_values() - 1))

    def test_shape_only_parameter_starts_at_zero(self):
        store = ParameterStore()
        z = store.add("z", shape=(2, 3))
        np.testing.assert_array_equal(z.data, np.zeros((2, 3)))
        store.lay_out()
        z.data[0, 1] = 4.0
        assert store.values[1] == 4.0

    def test_given_arena_is_used_as_it_is(self):
        store = ParameterStore(np.float64)
        a, b = store.add("a", shape=(2, 2)), store.add("b", shape=(3,))
        arena = np.arange(7.0)
        store.lay_out(arena)
        assert store.values is arena
        np.testing.assert_array_equal(a.data, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(b.data, [4.0, 5.0, 6.0])

    @pytest.mark.parametrize("arena", [np.zeros(6), np.zeros(7, dtype=np.float32),
                                       np.zeros((7, 1))])
    def test_given_arena_must_fit_the_layout(self, arena):
        store = ParameterStore(np.float64)
        store.add("a", shape=(2, 2))
        store.add("b", shape=(3,))
        with pytest.raises(ValueError, match=r"expected float64 \(7,\)"):
            store.lay_out(arena)

    def test_given_arena_needs_unset_unlaid_parameters(self):
        store = ParameterStore()
        store.add("a", np.ones(2))
        with pytest.raises(ValueError, match="only be given to unset"):
            store.lay_out(np.zeros(2))
        store = ParameterStore()
        store.add("a", shape=(2,))
        store.lay_out()
        with pytest.raises(ValueError, match="only be given to unset"):
            store.lay_out(np.zeros(2))

    def test_add_after_layout_raises(self):
        store = ParameterStore()
        store.add("w", np.ones(2))
        backward_with(store, w=np.ones(2))
        store.adam_step(lr=0.1)
        with pytest.raises(ValueError, match="cannot add parameter v: the arena is already laid"):
            store.add("v", np.full(3, 2.0))
        with pytest.raises(ValueError, match="parameter z"):
            store.add("z", shape=(3,))
        assert store.n_values() == 2


def reference_lazy_adam(params, grads, m1, m2, t, lr, read, weight_decay=0.0):
    """``reference_adam`` on every parameter but the tables in ``read``, and
    on only the ``read[name]`` rows of each of those."""
    dense = [name for name in params if name not in read]
    reference_adam(*({name: d[name] for name in dense} for d in (params, grads, m1, m2)), t,
                   lr, weight_decay=weight_decay)
    for name, rows in read.items():
        rows = np.unique(rows)
        parts = [{name: d[name][rows]} for d in (params, grads, m1, m2)]
        reference_adam(*parts, t, lr, weight_decay=weight_decay)
        for d, part in zip((params, m1, m2), (parts[0], parts[2], parts[3])):
            d[name][rows] = part[name]


def store_moments(store):
    """Each parameter's two Adam moments as views of its shape, by name."""
    return {name: (store._moment1[offset : offset + math.prod(shape)].reshape(shape),
                   store._moment2[offset : offset + math.prod(shape)].reshape(shape))
            for name, shape, offset in store.layout()}


# arena layouts for the lazy-table tests: (name, is a table) in arena order.
# "table" is the table a test reads in part or in full; "full" is a table
# every step reads in full.
LAYOUTS = {
    "dense-table-dense": (("w", False), ("table", True), ("b", False)),
    "table-first": (("table", True), ("w", False), ("b", False)),
    "table-last": (("w", False), ("b", False), ("table", True)),
    "adjacent-tables": (("w", False), ("table", True), ("full", True), ("b", False)),
    "no-table": (("w", False), ("table", False), ("b", False)),
}
LAZY_LAYOUTS = [name for name, layout in LAYOUTS.items() if ("table", True) in layout]


class TestLazyTables:
    """Adam steps only the rows of an embedding table that the step's
    lookups read; float64 stores against the per-tensor reference, on
    each of ``LAYOUTS``."""

    def make_store(self, layout="dense-table-dense", rows=7, dtype=np.float64):
        """The parameters of ``layout``, with ``rows`` rows of "table"; a
        parameter's first values do not depend on the layout."""
        rng = np.random.default_rng(8)
        initial = {name: rng.normal(size=shape)
                   for name, shape in (("w", (3, 2)), ("table", (8, 3)), ("full", (5, 2)),
                                       ("b", (3,)))}
        store = ParameterStore(dtype)
        for name, table in LAYOUTS[layout]:
            store.add(name, initial[name][:rows] if name == "table" else initial[name],
                      table=table)
        return store

    def lookup_step(self, store, ids, seed):
        """Backward through a lookup of ``ids`` in "table", of every row of
        "full" and of each other parameter as it is, then an Adam step;
        returns the gradients it read, by name."""
        rng = np.random.default_rng(seed)
        reads = {"table": ids, "full": rng.permutation(5)}
        with Tape() as tape:
            terms = []
            for name, p in store.items():
                out = ad.embedding_lookup(p, reads[name]) if name in reads else p
                g = rng.normal(size=out.shape).astype(store.dtype)
                terms.append(ad.sum_all(ad.mul(out, Tensor(g))))
            loss = functools.reduce(ad.add, terms)
        tape.backward(loss, store)
        grads = {name: p.grad.copy() for name, p in store.items()}
        store.adam_step(lr=1e-2, weight_decay=0.01)
        return grads

    @staticmethod
    def lazy_rows(store, ids):
        """The rows ``lookup_step`` reads of each of the store's tables."""
        return {name: np.asarray(ids) if name == "table" else np.arange(5)
                for name in store.tables}

    moments = staticmethod(store_moments)

    def oracle_state(self, store):
        params = {name: p.data.copy() for name, p in store.items()}
        return params, *({name: np.zeros_like(p) for name, p in params.items()} for _ in "mv")

    def assert_oracle_state(self, store, params, m1, m2, layout):
        moments = self.moments(store)
        for name, p in store.items():
            assert p.data.tobytes() == params[name].tobytes(), (layout, name)
            assert moments[name][0].tobytes() == m1[name].tobytes(), (layout, name)
            assert moments[name][1].tobytes() == m2[name].tobytes(), (layout, name)

    def test_reading_every_row_matches_the_reference(self):
        for layout in LAYOUTS:
            store = self.make_store(layout)
            params, m1, m2 = self.oracle_state(store)
            for t, ids in enumerate([[6, 0, 5, 1, 4, 2, 3], [[3, 3], [0, 1], [2, 4], [5, 6]],
                                     np.arange(7)[::-1]], start=1):
                grads = self.lookup_step(store, ids, seed=t)
                reference_adam(params, grads, m1, m2, t, lr=1e-2, weight_decay=0.01)
            self.assert_oracle_state(store, params, m1, m2, layout)

    def table_state(self, store):
        """The table's values and both moments, copied; zero moments before
        the first step."""
        table = store["table"].data
        if store._moment1 is None:
            return table.copy(), np.zeros_like(table), np.zeros_like(table)
        return table.copy(), *(m.copy() for m in self.moments(store)["table"])

    def test_rows_no_lookup_read_keep_value_and_moments(self):
        for layout in LAZY_LAYOUTS:
            store = self.make_store(layout)
            params, m1, m2 = self.oracle_state(store)
            initial = self.table_state(store)
            for t, ids in enumerate([[1, 4], [4, 2, 2], [0], [2, 1, 4]], start=1):
                before = self.table_state(store)
                grads = self.lookup_step(store, ids, seed=10 + t)
                reference_lazy_adam(params, grads, m1, m2, t, 1e-2, self.lazy_rows(store, ids),
                                    weight_decay=0.01)
                unread = np.setdiff1d(np.arange(7), ids)
                for old, new in zip(before, self.table_state(store)):
                    assert new[unread].tobytes() == old[unread].tobytes(), layout
            self.assert_oracle_state(store, params, m1, m2, layout)
            # rows 3, 5 and 6 were never read: initial values, zero moments
            never = [3, 5, 6]
            for old, new in zip(initial, self.table_state(store)):
                assert new[never].tobytes() == old[never].tobytes(), layout

    def test_a_row_read_twice_is_updated_once(self):
        twice, once = self.make_store(), self.make_store()
        self.lookup_step(twice, [[2, 2]], seed=1)
        # one read of row 2 with the summed gradient of both reads
        row_grad = twice["table"].grad[2].copy()
        with Tape() as tape:
            rows = ad.embedding_lookup(once["table"], [2])
            loss = ad.sum_all(ad.mul(rows, Tensor(row_grad[None])))
        tape.backward(loss, once)
        once.adam_step(lr=1e-2, weight_decay=0.01)
        assert twice["table"].data.tobytes() == once["table"].data.tobytes()
        assert twice["table"].data[2].tobytes() != self.make_store()["table"].data[2].tobytes()
        assert (self.moments(twice)["table"][1].tobytes()
                == self.moments(once)["table"][1].tobytes())

    def test_step_count_is_shared(self):
        store = self.make_store()
        params, m1, m2 = self.oracle_state(store)
        # row 5 is first read at step 3: its first update uses step 3's
        # bias correction, not step 1's
        for t, ids in enumerate([[0], [1, 0], [5]], start=1):
            grads = self.lookup_step(store, ids, seed=20 + t)
            assert store.step_count == t
            reference_lazy_adam(params, grads, m1, m2, t, 1e-2, {"table": np.asarray(ids)},
                                weight_decay=0.01)
        assert store["table"].data[5].tobytes() == params["table"][5].tobytes()
        first_step = {"table": self.make_store()["table"].data[5:6].copy()}
        reference_adam(first_step, {"table": grads["table"][5:6]},
                       {"table": np.zeros((1, 3))}, {"table": np.zeros((1, 3))}, 1, 1e-2,
                       weight_decay=0.01)
        assert store["table"].data[5].tobytes() != first_step["table"].tobytes()

    def test_a_backward_without_lookups_leaves_the_table(self):
        store = self.make_store()
        self.lookup_step(store, [0, 1], seed=1)
        before = self.table_state(store)
        backward_with(store, w=np.ones((3, 2)))
        store.grads[...] = 1.0
        store.adam_step(lr=1e-2, weight_decay=0.01)
        assert store.step_count == 2
        for old, new in zip(before, self.table_state(store)):
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reading_every_row_gives_the_gathered_bytes(self, dtype):
        """A table whose rows were all read is stepped in the whole-update
        run; the same table with an eighth row, never read, is stepped row
        by row through the gather, and its first seven rows take the same
        values and moments byte for byte, as does every other parameter."""
        initial = self.make_store(rows=8, dtype=dtype)["table"].data
        for layout in LAZY_LAYOUTS:
            stores = [self.make_store(layout, rows, dtype) for rows in (7, 8)]
            for seed in range(3):
                ids = np.random.default_rng(seed).permutation(7)
                for store in stores:
                    self.lookup_step(store, ids, seed)
            full, gathered = (self.table_state(store) for store in stores)
            for a, b in zip(full, gathered):
                assert a.tobytes() == b[:7].tobytes(), layout
            assert gathered[0][7].tobytes() == initial[7].tobytes(), layout
            for name, p in stores[0].items():
                if name != "table":
                    assert p.data.tobytes() == stores[1][name].data.tobytes(), (layout, name)

    @pytest.mark.parametrize("layout, names", [
        ("dense-table-dense", [None, "table", None]),
        ("table-first", ["table", None]),
        ("table-last", [None, "table"]),
        ("adjacent-tables", [None, "table", "full", None]),
        ("no-table", [None]),
    ])
    def test_segments_cut_the_arena_at_each_table(self, layout, names):
        store = self.make_store(layout)
        store.lay_out()
        assert [name for _, _, name in store._segments] == names
        bounds = [bound for lo, hi, _ in store._segments for bound in (lo, hi)]
        assert bounds[0] == 0 and bounds[-1] == store.n_values()
        assert bounds[1:-1:2] == bounds[2::2]  # each starts where the last ended
        for lo, hi, name in store._segments:
            if name is not None:
                assert store.values[lo:hi].tobytes() == store[name].data.tobytes()

    # _adam_update calls on a step that reads rows 1, 4 and 5 of "table" and
    # on one that reads all of them, at 4 values a slice: each whole-update
    # run takes ceil(size / 4) calls and each partly read table (3 wide)
    # one call a row read. w has 6 values, "table" 21, "full" 10 and b 3.
    ADAM_CALLS = {
        "dense-table-dense": (2 + 3 + 1, 8),
        "table-first": (3 + 3, 8),
        "table-last": (3 + 3, 8),
        "adjacent-tables": (2 + 3 + 4, 10),
        "no-table": (8, 8),
    }

    @pytest.mark.parametrize("layout", ADAM_CALLS)
    def test_adam_update_calls_per_step(self, monkeypatch, layout):
        """Dense runs and fully read tables merge into whole-update runs,
        updated a slice at a time, slices crossing parameters; a partly
        read table is updated a block of rows at a time. The bytes are the
        per-tensor oracle's."""
        monkeypatch.setattr(ad, "_ADAM_CHUNK", 4)
        shapes, update = [], ad._adam_update
        monkeypatch.setattr(ad, "_adam_update",
                            lambda x, *rest: (shapes.append(x.shape), update(x, *rest)))
        store = self.make_store(layout)
        params, m1, m2 = self.oracle_state(store)
        steps = zip(([1, 4, 4, 5], np.arange(7)), self.ADAM_CALLS[layout])
        for t, (ids, expected) in enumerate(steps, start=1):
            shapes.clear()
            grads = self.lookup_step(store, ids, seed=t)
            assert len(shapes) == expected, shapes
            reference_lazy_adam(params, grads, m1, m2, t, 1e-2, self.lazy_rows(store, ids),
                                weight_decay=0.01)
        self.assert_oracle_state(store, params, m1, m2, layout)

    def test_a_table_is_two_dimensional(self):
        store = ParameterStore()
        with pytest.raises(ValueError, match=r"table t must be \[rows, dim\], got shape \(3,\)"):
            store.add("t", np.ones(3), table=True)
        assert store.add("u", shape=(3, 2), table=True).shape == (3, 2)
        assert store.tables == ("u",)


class TestStoreDtype:
    """A store is float32 unless asked otherwise; a float64 store keeps the
    float64 arithmetic and is the oracle of the float32 one."""

    def test_default_store_is_float32_throughout(self):
        store = ParameterStore()
        w = store.add("w", np.array([1.0, -2.0]))
        z = store.add("z", shape=(3,))
        assert w.data.dtype == z.data.dtype == np.float32
        backward_with(store, w=[0.5, 0.25], z=np.ones(3))
        store.adam_step(lr=0.1, weight_decay=0.01)
        for array in (store.values, store.grads, store._moment1, store._moment2,
                      store.snapshot(), w.grad, z.grad):
            assert array.dtype == np.float32

    def test_float32_adam_follows_the_float64_oracle(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=40_000)  # more than one Adam chunk
        stores = [ParameterStore(dtype) for dtype in (np.float64, np.float32)]
        for store in stores:
            store.add("w", values)
        for _ in range(3):
            g = rng.normal(size=values.size)
            for store in stores:
                backward_with(store, w=g)
                store.adam_step(lr=1e-3, weight_decay=0.01)
        assert stores[0].values.tobytes() != values.tobytes()
        np.testing.assert_allclose(stores[1].values, stores[0].values, rtol=0, atol=1e-6)

    def test_gradient_check_needs_a_float64_store(self):
        store = ParameterStore()
        w = store.add("w", np.array([1.5, -2.0]))
        with pytest.raises(ValueError, match="float64 parameter store, got float32"):
            gradient_check(lambda: ad.sum_all(ad.mul(w, w)), store)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="float16"):
            ParameterStore(np.float16)

    def test_given_arena_must_have_the_store_dtype(self):
        store = ParameterStore()
        store.add("a", shape=(2, 2))
        with pytest.raises(ValueError, match=r"expected float32 \(4,\)"):
            store.lay_out(np.zeros(4))
        arena = np.zeros(4, dtype=np.float32)
        store.lay_out(arena)
        assert store.values is arena

    def test_primitives_keep_float32(self):
        rng = np.random.default_rng(1)
        store = ParameterStore()
        p = make_gru_params(store, 3, 4, rng=rng)
        table = Tensor(rng.normal(size=(5, 3)).astype(np.float32), requires_grad=True)
        h0 = Tensor(np.zeros((2, 4), np.float32), requires_grad=True)
        with Tape() as tape:
            x = ad.embedding_lookup(table, [0, 3, 3, 1])
            states = gru_sequence(x, h0, p)
            loss = ad.sum_all(ad.log_softmax_at(states, [0, 1, 3], [2, 0, 1]))
        tape.backward(loss, store)
        assert Tensor([1, 2]).data.dtype == np.float64
        for array in (x.data, states.data, loss.data, table.grad, h0.grad, x.grad, store.grads):
            assert array.dtype == np.float32

    @pytest.mark.parametrize("h0_dtype, data_dtype", [(np.float64, np.float32),
                                                      (np.float32, np.float64)])
    def test_gru_sequence_rejects_an_h0_of_another_dtype(self, h0_dtype, data_dtype):
        store = ParameterStore(data_dtype)
        p = make_gru_params(store, 3, 4, rng=np.random.default_rng(2))
        x = Tensor(np.ones((6, 3), data_dtype))
        h0 = Tensor(np.zeros((2, 4), h0_dtype))
        want = (rf"h0 is {np.dtype(h0_dtype)}, but its inputs and weights compute in "
                rf"{np.dtype(data_dtype)}")
        with pytest.raises(TypeError, match=want):
            gru_sequence(x, h0, p)
        assert gru_sequence(x, Tensor(np.zeros((2, 4), data_dtype)), p).data.dtype == data_dtype


class TestTapeStack:
    def test_exit_out_of_order_rejected(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        try:
            with pytest.raises(RuntimeError, match="reverse order"):
                outer.__exit__(None, None, None)
        finally:
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)
        assert ad._active_tape() is None


class TestGradientCheck:
    def test_quadratic(self):
        store = ParameterStore(np.float64)
        w = store.add("w", np.array([1.5, -2.0]))

        def loss_fn():
            return ad.sum_all(ad.mul(w, w))

        assert gradient_check(loss_fn, store) < 1e-7

    def test_zero_parameter_model(self):
        store = ParameterStore(np.float64)
        x = Tensor([[1.0, 2.0]])

        def loss_fn():
            return ad.sum_all(ad.mul(x, x))

        assert gradient_check(loss_fn, store) == 0.0


def _check(loss_fn, store, tol=1e-4):
    assert gradient_check(loss_fn, store, epsilon=1e-5) < tol


class TestPrimitiveGradients:
    """Central finite differences on random small shapes for each primitive."""

    rng = np.random.default_rng(42)

    def test_linear_chain(self):
        store = ParameterStore(np.float64)
        w = store.add("w", self.rng.normal(size=(5, 7)))
        b = store.add("b", self.rng.normal(size=7))
        x = Tensor(self.rng.normal(size=(3, 5)))
        probe = Tensor(self.rng.normal(size=(3, 7)))
        _check(lambda: ad.sum_all(ad.mul(ad.tanh(linear(x, w, b)), probe)), store)

    def test_elementwise_ops(self):
        store = ParameterStore(np.float64)
        a = store.add("a", self.rng.normal(size=(4, 4)))
        b = store.add("b", self.rng.normal(size=(4, 4)))
        probe = Tensor(self.rng.normal(size=(4, 4)))

        def loss_fn():
            y = ad.add(ad.mul(a, b), ad.sub(a, ad.scale(b, 0.7)))
            y = ad.add(ad.exp(ad.scale(a, 0.3)), y)
            return ad.sum_all(ad.mul(y, probe))

        _check(loss_fn, store)

    def test_sigmoid_softplus(self):
        store = ParameterStore(np.float64)
        a = store.add("a", self.rng.normal(size=(6,)))
        probe = Tensor(self.rng.normal(size=(6,)))
        _check(lambda: ad.sum_all(ad.mul(ad.sigmoid(a), probe)), store)
        _check(lambda: ad.sum_all(ad.mul(ad.softplus(a), probe)), store)

    def test_logsumexp(self):
        store = ParameterStore(np.float64)
        v = store.add("v", self.rng.normal(size=(3, 7)))
        # row 1 keeps three finite entries; its -inf ones take no part
        mask = np.zeros((3, 7))
        mask[1, [0, 2, 3, 6]] = -np.inf
        probe = Tensor(self.rng.normal(size=(3,)))

        def loss_fn():
            masked = ad.add(ad.scale(v, 2.0), Tensor(mask))
            return ad.sum_all(ad.mul(ad.logsumexp_rows(masked), probe))

        _check(loss_fn, store)
        with Tape() as tape:
            loss = loss_fn()
        tape.backward(loss, store)
        assert np.all(v.grad[1, [0, 2, 3, 6]] == 0.0)

    def test_embedding_lookup(self):
        store = ParameterStore(np.float64)
        table = store.add("emb", self.rng.normal(size=(8, 3)))
        probe = Tensor(self.rng.normal(size=(4, 3)))
        ids = [1, 3, 3, 0]
        _check(lambda: ad.sum_all(ad.mul(ad.embedding_lookup(table, ids), probe)), store)

    def test_embedding_lookup_of_id_pairs(self):
        store = ParameterStore(np.float64)
        table = store.add("emb", self.rng.normal(size=(8, 3)))
        probe = Tensor(self.rng.normal(size=(4, 6)))
        ids = [[1, 5], [3, 3], [3, 0], [7, 1]]
        _check(lambda: ad.sum_all(ad.mul(ad.embedding_lookup(table, ids), probe)), store)

    def test_gru_cell(self):
        rng = np.random.default_rng(7)
        store = ParameterStore(np.float64)
        p = make_gru_params(store, 3, 4, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)))
        h = Tensor(rng.normal(size=(2, 4)))
        probe = Tensor(rng.normal(size=(2, 4)))
        _check(lambda: ad.sum_all(ad.mul(gru_cell(x, h, p), probe)), store)

    def test_gru_two_steps_through_state(self):
        rng = np.random.default_rng(11)
        store = ParameterStore(np.float64)
        p = make_gru_params(store, 2, 3, rng=rng)
        x1 = Tensor(rng.normal(size=(1, 2)))
        x2 = Tensor(rng.normal(size=(1, 2)))
        probe = Tensor(rng.normal(size=(1, 3)))

        def loss_fn():
            h = gru_cell(x1, Tensor(np.zeros((1, 3))), p)
            h = gru_cell(x2, h, p)
            return ad.sum_all(ad.mul(h, probe))

        _check(loss_fn, store)


# The chains that ``linear``, ``reparameterize`` and ``kl_standard_normal``
# replaced, kept as their oracles: outputs and gradients must match them
# byte for byte.


def chained_linear(x, w, b, tanh=False):
    y = ad.add(ad.matmul(x, w), b)
    return ad.tanh(y) if tanh else y


def chained_reparameterize(mu, log_sigma, noise):
    return ad.add(mu, ad.mul(ad.exp(log_sigma), Tensor(noise)))


def chained_kl(mu, log_sigma):
    two_ls = ad.scale(log_sigma, 2.0)
    term = ad.add(
        ad.add_const(ad.exp(two_ls), -1.0),
        ad.add(ad.scale(log_sigma, -2.0), ad.mul(mu, mu)),
    )
    return ad.scale(ad.sum_all(term), 0.5)


def with_zeros(rng, shape):
    """Normal values with about a third of them exact zeros of either sign."""
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.2] = 0.0
    values[rng.random(shape) < 0.15] = -0.0
    return values


def replay(op, arrays, tracked, prefill, g):
    """Run ``op`` over fresh tensors holding ``arrays`` (those flagged in
    ``tracked`` require a gradient, and ``prefill`` gives each a starting
    gradient or None), feed ``g`` into the output's gradient and replay the
    tape. Returns the output and every input gradient as bytes."""
    inputs = []
    for a, track, start in zip(arrays, tracked, prefill):
        t = Tensor(a.copy(), requires_grad=track)
        t.grad = None if start is None else start.copy()
        inputs.append(t)
    with Tape() as tape:
        out = op(*inputs)
    out.grad = g
    for o, rule in reversed(tape._records):
        if o.grad is not None:
            rule(o.grad)
    return [out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t in inputs]


tracked_flags = st.lists(st.booleans(), min_size=3, max_size=3).filter(any)


class TestOneRecordOps:
    """``linear`` (plain and with tanh), ``reparameterize`` and
    ``kl_standard_normal`` each record one tape entry and reproduce their
    chains' bytes, with inputs and incoming gradients holding exact zeros of
    either sign, some inputs untracked and some gradients already started."""

    def draw_case(self, seed, tracked, prefilled, shapes, g_shape):
        rng = np.random.default_rng(seed)
        arrays = [with_zeros(rng, s) for s in shapes]
        prefill = [with_zeros(rng, s) if p else None for s, p in zip(shapes, prefilled)]
        return arrays, list(tracked), prefill, with_zeros(rng, g_shape)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4), st.booleans(),
           tracked_flags, st.lists(st.booleans(), min_size=3, max_size=3),
           st.integers(0, 2**32 - 1))
    def test_linear_matches_its_chain(self, rows, d_in, d_out, tanh, tracked, prefilled, seed):
        arrays, tracked, prefill, g = self.draw_case(
            seed, tracked, prefilled, [(rows, d_in), (d_in, d_out), (d_out,)], (rows, d_out))
        fused = replay(lambda x, w, b: linear(x, w, b, tanh=tanh), arrays, tracked, prefill, g)
        chain = replay(lambda x, w, b: chained_linear(x, w, b, tanh), arrays, tracked, prefill, g)
        assert fused == chain

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), tracked_flags,
           st.lists(st.booleans(), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
    def test_reparameterize_matches_its_chain(self, rows, dim, tracked, prefilled, seed):
        # the third input is the noise, which takes no gradient
        arrays, tracked, prefill, g = self.draw_case(
            seed, tracked[:2], prefilled[:2], [(rows, dim)] * 3, (rows, dim))
        mu, log_sigma, noise = arrays
        fused = replay(lambda m, s: ad.reparameterize(m, s, noise),
                       [mu, log_sigma], tracked, prefill, g)
        chain = replay(lambda m, s: chained_reparameterize(m, s, noise),
                       [mu, log_sigma], tracked, prefill, g)
        assert fused == chain

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), tracked_flags,
           st.lists(st.booleans(), min_size=3, max_size=3), st.integers(0, 2**32 - 1))
    def test_kl_matches_its_chain(self, rows, dim, tracked, prefilled, seed):
        arrays, tracked, prefill, g = self.draw_case(
            seed, tracked[:2], prefilled[:2], [(rows, dim)] * 2, ())
        fused = replay(ad.kl_standard_normal, arrays, tracked, prefill, g)
        chain = replay(chained_kl, arrays, tracked, prefill, g)
        assert fused == chain

    def test_each_records_one_entry(self):
        rng = np.random.default_rng(3)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in [(3, 4), (4, 2), (2,)])
        mu, log_sigma = (Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(2))
        ops = [lambda: linear(x, w, b), lambda: linear(x, w, b, tanh=True),
               lambda: ad.reparameterize(mu, log_sigma, np.ones((3, 2))),
               lambda: ad.kl_standard_normal(mu, log_sigma)]
        for op in ops:
            with Tape() as tape:
                op()
            assert len(tape) == 1

    def test_shape_mismatches_are_rejected(self):
        mu, log_sigma = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="noise shape"):
            ad.reparameterize(mu, Tensor(np.zeros((2, 3))), np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="log sigma shape"):
            ad.reparameterize(mu, log_sigma, np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="log sigma shape"):
            ad.kl_standard_normal(mu, log_sigma)

    @pytest.mark.parametrize("tanh", [False, True])
    def test_linear_gradient_check(self, tanh):
        rng = np.random.default_rng(5)
        store = ParameterStore(np.float64)
        x = store.add("x", rng.normal(size=(3, 4)))
        w = store.add("w", rng.normal(size=(4, 5)))
        b = store.add("b", rng.normal(size=5))
        probe = Tensor(rng.normal(size=(3, 5)))
        err = gradient_check(lambda: ad.sum_all(ad.mul(linear(x, w, b, tanh=tanh), probe)), store)
        assert err < 1e-6

    def test_reparameterize_gradient_check(self):
        rng = np.random.default_rng(6)
        store = ParameterStore(np.float64)
        mu = store.add("mu", rng.normal(size=(3, 4)))
        log_sigma = store.add("log_sigma", rng.normal(size=(3, 4)))
        noise = rng.normal(size=(3, 4))
        probe = Tensor(rng.normal(size=(3, 4)))
        err = gradient_check(
            lambda: ad.sum_all(ad.mul(ad.reparameterize(mu, log_sigma, noise), probe)), store)
        assert err < 1e-6

    def test_kl_gradient_check(self):
        rng = np.random.default_rng(7)
        store = ParameterStore(np.float64)
        mu = store.add("mu", rng.normal(size=(3, 4)))
        log_sigma = store.add("log_sigma", rng.normal(size=(3, 4)))
        err = gradient_check(lambda: ad.scale(ad.kl_standard_normal(mu, log_sigma), 1.3), store)
        assert err < 1e-6


class TestBatchReductions:
    """The ops that let one tape hold a batch of ragged sequences:
    ``sum_all`` and ``kl_standard_normal`` over runs of rows, the per-row
    ``weighted_sum`` that takes a batch's mean of per-sequence losses,
    ``take_rows`` and ``sub_halves``. One run of all rows must keep the
    unsegmented bytes, so that a batch of one sequence trains as before."""

    segments = [2, 1, 3, 0, 4]

    def test_segment_sums_are_the_sums_of_each_slice(self):
        rng = np.random.default_rng(0)
        for shape in [(10,), (10, 3)]:
            x = rng.normal(size=shape)
            got = ad.sum_all(Tensor(x), self.segments).data
            ends = np.cumsum(self.segments)
            want = [np.sum(x[hi - n : hi]) for n, hi in zip(self.segments, ends)]
            assert got.tobytes() == np.array(want).tobytes()
            kl_got = ad.kl_standard_normal(Tensor(x), Tensor(x[::-1].copy()), self.segments).data
            kl_want = [ad.kl_standard_normal(Tensor(x[hi - n : hi]),
                                             Tensor(x[::-1][hi - n : hi].copy())).data
                       for n, hi in zip(self.segments, ends)]
            np.testing.assert_array_equal(kl_got, kl_want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.lists(st.booleans(), min_size=2, max_size=2),
           st.integers(0, 2**32 - 1))
    def test_one_segment_keeps_the_unsegmented_bytes(self, rows, dim, prefilled, seed):
        rng = np.random.default_rng(seed)
        arrays = [with_zeros(rng, (rows, dim)) for _ in range(2)]
        prefill = [with_zeros(rng, (rows, dim)) if p else None for p in prefilled]
        g = with_zeros(rng, ())
        for op, segmented in [
            (lambda x, y: ad.sum_all(x), lambda x, y: ad.sum_all(x, [rows])),
            (ad.kl_standard_normal, lambda x, y: ad.kl_standard_normal(x, y, [rows])),
        ]:
            whole = replay(op, arrays, [True, True], prefill, g)
            one = replay(segmented, arrays, [True, True], prefill, g[None])
            assert one == whole

    def test_gradient_checks(self):
        rng = np.random.default_rng(8)
        store = ParameterStore(np.float64)
        x = store.add("x", rng.normal(size=(10, 3)))
        mu = store.add("mu", rng.normal(size=(10, 2)))
        log_sigma = store.add("log_sigma", rng.normal(size=(10, 2)))
        pairs = store.add("pairs", rng.normal(size=(6, 1)))
        weights = rng.uniform(0.1, 2.0, size=5)
        rows = [7, 0, 3, 9]

        def loss_fn():
            per_segment = ad.sub(ad.scale(ad.kl_standard_normal(mu, log_sigma, self.segments), 0.7),
                                 ad.sum_all(ad.mul(x, x), self.segments))
            gathered = ad.sum_all(ad.mul(ad.take_rows(x, rows), ad.take_rows(x, rows[::-1])))
            halves = ad.sum_all(ad.softplus(ad.sub_halves(pairs)))
            return ad.add(ad.weighted_sum(per_segment, weights), ad.add(gathered, halves))

        _check(loss_fn, store)

    def test_each_records_one_entry(self):
        t = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        v = Tensor(np.arange(3.0), requires_grad=True)
        for op in [lambda: ad.sum_all(t, [2, 4]), lambda: ad.weighted_sum(v, [1.0, 2.0, 0.5]),
                   lambda: ad.take_rows(t, [5, 0]), lambda: ad.sub_halves(t),
                   lambda: ad.kl_standard_normal(t, t, [6])]:
            with Tape() as tape:
                op()
            assert len(tape) == 1

    def test_values(self):
        t = Tensor(np.arange(12.0).reshape(6, 2))
        assert ad.weighted_sum(Tensor([1.0, 2.0, 4.0]), [0.5, 0.25, 2.0]).item() == 9.0
        np.testing.assert_array_equal(ad.take_rows(t, [5, 0]).data, [[10.0, 11.0], [0.0, 1.0]])
        np.testing.assert_array_equal(ad.sub_halves(t).data, np.full((3, 2), 6.0))

    def test_sub_halves_matches_the_flip_matrix_product(self):
        # the [-I | I] @ s form it replaced, with its linear layer's backward
        rng = np.random.default_rng(4)
        for n in (1, 3, 8):
            s = with_zeros(rng, (2 * n, 1))
            g = with_zeros(rng, (n, 1))
            flip = np.eye(n, 2 * n, n) - np.eye(n, 2 * n)
            product = replay(lambda t: linear(Tensor(flip), t, Tensor(np.zeros(1))),
                             [s], [True], [None], g)
            assert replay(ad.sub_halves, [s], [True], [None], g) == product

    def test_bad_shapes_are_rejected(self):
        with pytest.raises(ShapeError, match="segments"):
            ad.sum_all(Tensor(np.zeros(5)), [2, 2])
        with pytest.raises(ShapeError, match="segments"):
            ad.kl_standard_normal(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))), [4, -1])
        with pytest.raises(ShapeError, match="weighted_sum"):
            ad.weighted_sum(Tensor(np.zeros(3)), [1.0, 2.0])
        with pytest.raises(ShapeError, match="even"):
            ad.sub_halves(Tensor(np.zeros((3, 1))))
