import inspect
import itertools
import pathlib
import re
import weakref

import numpy as np
import pytest

from moekgc import autodiff as ad
from moekgc import parallel, scoring
import test_dead_code as dead_code
from oracles import (clamp_min, composite_place_rows, composite_score_batch, cos,
                     finite_difference_grads, flat_scatter_rows, relative_block_error, relu,
                     sigmoid, sin, slice_cols, sqrt, square, tensor_mean)


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def test_every_public_autodiff_function_is_library_code_or_api():
    """An op that only tests call belongs in tests/oracles.py.  This is
    autodiff's share of the dead-code guard in tests/test_dead_code.py, under
    its rule (a use inside autodiff.py does not count) and its one
    allow-list."""
    trees = dead_code.parsed_modules()
    used = dead_code.autodiff_uses(trees)
    unused = {f"autodiff.{name}" for name, _, bound
              in dead_code.public_functions(trees["autodiff.py"]) if not bound and name not in used}
    assert unused == {name for name in dead_code._UNREFERENCED_OK
                      if name.startswith("autodiff.") and name.count(".") == 1}


def test_every_public_tensor_method_has_a_library_caller():
    """A method or property of Tensor that only tests use goes: library code
    outside the class reaches each one as .<name>."""
    src = pathlib.Path(ad.__file__).parent
    library = "\n".join(p.read_text() for p in src.glob("*.py"))
    library = library.replace(inspect.getsource(ad.Tensor), "")
    public = {name for name in vars(ad.Tensor) if not name.startswith("_")}
    assert {name for name in public if not re.search(rf"\.{name}\b", library)} == set()


def test_matmul_grad_matches_hand_value():
    # loss = sum(A @ B) with A = [[1,2]], B = [[3],[4]]
    A = ad.parameter([[1.0, 2.0]])
    B = ad.parameter([[3.0], [4.0]])
    loss = (A @ B).sum()
    ad.backward(loss)
    np.testing.assert_allclose(A.grad, [[3.0, 4.0]], rtol=1e-6)
    np.testing.assert_allclose(B.grad, [[1.0], [2.0]], rtol=1e-6)


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    with ad.using_dtype(np.float64):
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        A, B = ad.parameter(a), ad.parameter(b)
        loss = (A @ B).sum()
        ad.backward(loss)

        def f():
            ad.reset_tape()
            return float(((ad.Tensor(A.data) @ ad.Tensor(B.data))).sum().data)

        fd_a, fd_b = finite_difference_grads(f, [A.data, B.data])
    assert relative_block_error(A.grad, fd_a) < 1e-3
    assert relative_block_error(B.grad, fd_b) < 1e-3


def test_relu_subgradient_zero_at_zero():
    x = ad.parameter([-1.0, 0.0, 2.0])
    ad.backward(relu(x).sum())
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_softmax_uniform_on_equal_logits():
    s = ad.softmax(ad.Tensor([3.0, 3.0, 3.0, 3.0]))
    np.testing.assert_allclose(s.data, np.full(4, 0.25), atol=1e-7)


def test_softmax_closed_form():
    # softmax([ln 2, 0]) = (2/3, 1/3)
    s = ad.softmax(ad.Tensor([np.log(2.0), 0.0]))
    np.testing.assert_allclose(s.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-6)


def test_softmax_rows_normalize_and_shift_invariant():
    rng = np.random.default_rng(1)
    with ad.using_dtype(np.float64):
        x = rng.uniform(-5, 5, (8, 6))
        a = ad.softmax(ad.Tensor(x)).data
        b = ad.softmax(ad.Tensor(x + 100.0)).data
    np.testing.assert_allclose(a.sum(axis=1), np.ones(8), atol=1e-6)
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_softmax_permutation_equivariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-4, 4, 7)
        perm = rng.permutation(7)
        direct = ad.softmax(ad.Tensor(x[perm])).data
        permuted = ad.softmax(ad.Tensor(x)).data[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-6)


def test_backward_consumes_the_tape():
    x = ad.parameter([1.0, 2.0])
    loss = square(x).sum()
    assert ad.tape_size() == 2
    ad.backward(loss)
    assert ad.tape_size() == 0
    once = x.grad.copy()
    # a second call over the consumed graph names the reason and adds nothing
    with pytest.raises(ValueError, match="no longer on the tape: backward has run over it"):
        ad.backward(loss)
    assert x.grad.tobytes() == once.tobytes()
    # so does a loss whose tape was reset, also once later nodes are recorded
    stale = square(x).sum()
    ad.reset_tape()
    square(x)
    with pytest.raises(ValueError, match="no longer on the tape"):
        ad.backward(stale)
    assert x.grad.tobytes() == once.tobytes()


def test_a_failing_rule_still_consumes_the_tape():
    x = ad.parameter([1.0, 2.0])
    y = square(x)
    ad._TAPE[-1].grad_fn = lambda g: 1 / 0
    with pytest.raises(ZeroDivisionError):
        ad.backward((y + y).sum())
    assert ad.tape_size() == 0 and x.grad is None


def test_each_node_backward_runs_once():
    x = ad.parameter([1.5, -0.5])
    y = square(x)
    z = y + y  # y feeds one node twice
    ad.backward(z.sum())
    # d/dx sum(2*x^2) = 4x
    np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=1e-6)
    calls = [0]
    ad.reset_tape()
    x.zero_grad()
    y = square(x)
    node = ad._TAPE[-1]
    orig = node.grad_fn
    node.grad_fn = lambda g: (calls.__setitem__(0, calls[0] + 1), orig(g))[1]
    ad.backward((y + y).sum())
    assert calls[0] == 1


def test_backward_writes_grad_to_leaves_only():
    x = ad.parameter([1.5, -0.5])
    w = ad.parameter([2.0, 3.0])
    y = x + x  # one leaf used twice
    z = y * w
    ad.backward(z.sum())
    assert y.grad is None and z.grad is None
    np.testing.assert_array_equal(x.grad, [4.0, 6.0])
    np.testing.assert_array_equal(w.grad, [3.0, -1.0])
    # the two leaves of one add share no gradient buffer
    a, b = ad.parameter([1.0]), ad.parameter([1.0])
    ad.backward((a + b).sum())
    a.grad += 5.0
    np.testing.assert_array_equal(b.grad, [1.0])


def test_grad_accumulates_until_zeroed():
    # two forward and backward passes; the first emptied the tape, so no
    # reset between them
    x = ad.parameter([2.0])
    ad.backward(square(x).sum())
    ad.backward(square(x).sum())
    np.testing.assert_allclose(x.grad, [8.0], rtol=1e-6)
    x.zero_grad()
    assert x.grad is None


def test_mean_accumulates_in_float64():
    # 2**24 + 1 ones: a float32 running sum saturates at 2**24 and the mean
    # comes out below 1; float64 accumulation gives exactly 1
    n = 2**24 + 1
    x = ad.Tensor(np.ones(n, dtype=np.float32))
    assert float(tensor_mean(x).data) == 1.0


def test_forward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, (5, 5)).astype(np.float32)
    w = rng.uniform(-2, 2, (5, 5)).astype(np.float32)

    def run():
        ad.reset_tape()
        return ad.softmax(relu(ad.Tensor(x) @ ad.Tensor(w))).data.tobytes()

    assert run() == run()


def test_no_grad_records_nothing():
    x = ad.parameter([[1.0, 2.0]])
    with ad.no_grad():
        y = square(x).sum()
    assert ad.tape_size() == 0
    assert not y.requires_grad


def test_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        sqrt(ad.Tensor([-1.0]))


def test_non_finite_result_raises():
    big = ad.Tensor(np.array([3.0e38], dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(ad.FiniteError):
        ad.mul(big, big)


def test_affine_checks_the_pre_activation():
    # the product overflows to -inf, which relu would clamp to a finite 0
    x = ad.Tensor(np.array([[3.0e38, 3.0e38]], dtype=np.float32))
    w = ad.Tensor(np.array([[-2.0], [-2.0]], dtype=np.float32))
    b = ad.Tensor(np.zeros(1, dtype=np.float32))
    for relu in (False, True):
        with np.errstate(over="ignore"), pytest.raises(ad.FiniteError, match="affine"):
            ad.affine(x, w, b, relu=relu)


def test_affine_rejects_a_bias_that_widens_the_product():
    with pytest.raises(ValueError, match="bias"):
        ad.affine(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((4, 5))), ad.Tensor(np.ones((2, 1, 5))))


@pytest.mark.parametrize("split", [False, True], ids=["inline", "split"])
def test_affine_rejects_stacks_of_unequal_length(monkeypatch, split):
    # numpy would broadcast a one-matrix stack over the other, but the split
    # backward cannot sum a gradient down to it: both paths refuse at once
    monkeypatch.setattr(parallel, "workers", lambda: 2 if split else 1)
    if split:
        monkeypatch.setattr(ad, "_BLOCK_WORK", 1)
    for x_shape, w_shape in (((1, 12, 4), (3, 4, 6)), ((3, 12, 4), (1, 4, 6))):
        ops = [ad.parameter(np.ones(shape, dtype=np.float32))
               for shape in (x_shape, w_shape, (6,))]
        with pytest.raises(ValueError, match=re.escape(
                f"affine expects stacks of one length, got {x_shape} @ {w_shape}")):
            ad.affine(*ops)
        assert ad.tape_size() == 0


@pytest.mark.parametrize("const_x", [False, True])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("shapes", [((6, 4), (4, 6), (6,)),
                                    ((6, 4), (3, 4, 6), (3, 1, 6)),
                                    ((3, 6, 4), (3, 4, 6), (3, 1, 6))],
                         ids=["2d", "broadcast_3d", "batched_3d"])
def test_affine_matches_matmul_add_relu_bitwise(shapes, relu, const_x):
    # the whole layer, then the same layer cut over two workers, each
    # against the matmul + add + relu composite
    rng = np.random.default_rng(11)
    x, w, b = (rng.normal(size=shape).astype(np.float32) for shape in shapes)
    # a zero row of x meets zero bias entries: pre-activations exactly at 0
    x[..., 0, :] = 0.0
    b[..., ::2] = 0.0
    upstream = ad.Tensor(rng.normal(size=np.broadcast_shapes((x @ w).shape, b.shape))
                         .astype(np.float32))
    runs, cuts = [], []
    run = ad._run

    def noting_run(fn, spans):
        cuts.append(len(spans))
        run(fn, spans)

    for mode in ("whole", "split", "composite"):
        ad.reset_tape()
        ops = [ad.Tensor(x.copy()) if const_x else ad.parameter(x.copy()),
               ad.parameter(w.copy()), ad.parameter(b.copy())]
        with pytest.MonkeyPatch.context() as mp:
            if mode == "split":
                mp.setattr(parallel, "workers", lambda: 2)
                mp.setattr(ad, "_BLOCK_WORK", 1)
                mp.setattr(ad, "_run", noting_run)
            if mode == "composite":
                out = ops[0] @ ops[1] + ops[2]
                out = clamp_min(out, 0.0) if relu else out
            else:
                out = ad.affine(*ops, relu=relu)
            ad.backward((out * upstream).sum())
        runs.append([out.data] + [op.grad for op in ops])
    # the forward, the backward's rows unless it has none to do, and the
    # dW columns, each in two spans
    assert cuts == [2] * (3 if relu or not const_x else 2)
    assert all((run[1] is None) == const_x for run in runs)
    for fused in runs[:2]:
        for got, want in zip(fused, runs[2]):
            if want is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("const", [None, 0, 1, 2], ids=["all", "heads", "phases", "tails"])
@pytest.mark.parametrize("norm", scoring.NORMS)
def test_score_batch_matches_the_composite_oracle(norm, const):
    assert_score_batch_matches_the_composite_oracle(norm, const, 40)


@pytest.mark.parametrize("const", [None, 0, 1, 2], ids=["all", "heads", "phases", "tails"])
@pytest.mark.parametrize("norm", scoring.NORMS)
def test_score_batch_in_row_blocks_matches_the_composite_oracle(norm, const):
    # three blocks, the last one short
    n = 2500
    assert 2 * scoring._SCORE_ROWS < n < 3 * scoring._SCORE_ROWS
    assert_score_batch_matches_the_composite_oracle(norm, const, n)


def assert_score_batch_matches_the_composite_oracle(norm, const, n):
    rng = np.random.default_rng(12)
    d = 16
    heads = rng.normal(size=(n, d)).astype(np.float32)
    tails = rng.normal(size=(n, d)).astype(np.float32)
    phases = rng.uniform(-np.pi, np.pi, (n, d // 2)).astype(np.float32)
    phases[0], tails[0] = 0.0, heads[0]  # distance exactly 0
    heads[1], tails[1] = 0.0, 0.0  # and from zero vectors
    upstream = ad.Tensor(rng.normal(size=(n, 1)).astype(np.float32))
    runs = []
    for score_fn in (scoring.score_batch, composite_score_batch):
        ad.reset_tape()
        ops = [ad.Tensor(a.copy()) if i == const else ad.parameter(a.copy())
               for i, a in enumerate((heads, phases, tails))]
        out = score_fn(*ops, norm)
        ad.backward((out * upstream).sum())
        runs.append([out.data] + [op.grad for op in ops])
    (fused, *fused_grads), (chain, *chain_grads) = runs
    assert fused.dtype == chain.dtype == np.float32 and fused.tobytes() == chain.tobytes()
    for i, (got, want) in enumerate(zip(fused_grads, chain_grads)):
        assert (got is None) == (want is None) == (i == const)
        if want is None:
            continue
        assert got.dtype == want.dtype
        if i == 1:
            assert got.tobytes() == want.tobytes()
        else:
            # the composite sums each side's two zero-padded slice gradients,
            # and 0.0 + -0.0 is +0.0 where the fused op writes -0.0; every
            # other bit agrees
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def test_gather_rows_accumulates_repeated_indices():
    t = ad.parameter(np.arange(6, dtype=np.float32).reshape(3, 2))
    picked = ad.gather_rows(t, [0, 0, 2])
    ad.backward(picked.sum())
    np.testing.assert_array_equal(t.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (7, 5)])
def test_gather_rows_grad_matches_row_scatter(shape, dtype):
    # the oracle: a dense table scatter-added one row per index, in order
    def row_scatter(table, idx, g):
        buf = np.zeros_like(table)
        np.add.at(buf, idx, g)
        return buf

    rng = np.random.default_rng(8)
    idx = np.array([4, 0, 4, 6, 1, 4, 0, 2, 6, 6])  # unsorted, repeated
    with ad.using_dtype(dtype):
        table = ad.parameter(rng.normal(size=shape))
        picked = ad.gather_rows(table, idx)
        node = ad._TAPE[-1]
        # a float64 upstream gradient into a float32 table included
        for g in (rng.normal(size=picked.shape).astype(dtype), rng.normal(size=picked.shape)):
            got = node.grad_fn(g)[0]
            want = row_scatter(table.data, idx, g)
            assert got.dtype == want.dtype == table.data.dtype
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
        g = rng.normal(size=picked.shape).astype(dtype)
        ad.backward((picked * ad.Tensor(g)).sum())
    np.testing.assert_array_equal(table.grad.view(np.uint8),
                                  row_scatter(table.data, idx, g).view(np.uint8))


def _power_law(rng, n, rows, exponent=1.1):
    p = 1.0 / np.arange(1, rows + 1) ** exponent
    return rng.permutation(rows)[rng.choice(rows, n, p=p / p.sum())]


def _scatter_cases():
    """(name, idx, g, table shape, table dtype), seeded."""
    rng = np.random.default_rng(31)
    cases = [
        # a medium negative gather: tens of levels, the most used rows
        # past the last full level
        ("power_law", _power_law(rng, 8192, 6000), (8192, 16), (6000, 16), np.float32),
        ("sorted_unique", np.sort(rng.choice(5000, 2600, replace=False)), (2600, 32),
         (5000, 32), np.float32),
        # hundreds of uses of each row: every level past the first few is
        # short, so most uses go to the flat scatter
        ("few_rows", rng.integers(0, 200, 60_000), (60_000, 2), (200, 2), np.float32),
        ("float64_into_float32", _power_law(rng, 3000, 500), (3000, 24), (500, 24), np.float64),
        ("empty", np.zeros(0, dtype=np.int64), (0, 8), (10, 8), np.float32),
        # a desk negative gather
        ("desk", _power_law(rng, 128, 100), (128, 16), (100, 16), np.float32),
        ("one_d", _power_law(rng, 70_000, 900), (70_000,), (900,), np.float32),
    ]
    out = []
    for name, idx, g_shape, shape, g_dtype in cases:
        g = rng.normal(size=g_shape).astype(g_dtype)
        if g.size:
            # -0.0 alone and after +0.0, infinities of both signs (inf - inf
            # is nan) and nans of both signs, at spread positions
            flat = g.reshape(-1)
            at = rng.choice(flat.size, 12, replace=False)
            flat[at] = [-0.0, -0.0, 0.0, -0.0, np.inf, -np.inf, np.inf, np.nan, -np.nan,
                        np.nan, -0.0, -np.inf]
        out.append((name, idx, g, shape, np.float32))
    return out


@pytest.mark.parametrize("forced", [False, True], ids=["default", "all_levels"])
@pytest.mark.parametrize("case", _scatter_cases(), ids=lambda c: c[0])
def test_scatter_rows_matches_the_flat_scatter_bitwise(case, forced, monkeypatch):
    # forced: every scatter by levels, down to one-row levels, in pieces of
    # three rows
    if forced:
        monkeypatch.setattr(ad, "_LEVEL_ELEMENTS", 0)
        monkeypatch.setattr(ad, "_LEVEL_ROWS", 1)
        monkeypatch.setattr(ad, "_PIECE_ROWS", 3)
    _, idx, g, shape, dtype = case
    got = ad._scatter_rows(idx, g, shape, dtype)
    want = flat_scatter_rows(idx, g, shape, dtype)
    assert got.dtype == want.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_the_scatter_cases_reach_every_path():
    # at the default sizes: levels added in several pieces, the flat scatter
    # of the uses past the last full level, and the small flat scatter of a
    # desk gather
    def level_rows(idx):
        uses = np.bincount(idx)
        return [int((uses > r).sum()) for r in range(uses.max())]

    cases = {name: (idx, g) for name, idx, g, *_ in _scatter_cases()}
    for name, (idx, g) in cases.items():
        assert (g.size >= ad._LEVEL_ELEMENTS) == (name not in ("empty", "desk")), name
    sizes = level_rows(cases["power_law"][0])
    assert sizes[0] > ad._PIECE_ROWS and sizes[1] >= ad._LEVEL_ROWS > sizes[-1]
    assert level_rows(cases["sorted_unique"][0]) == [2600]
    sizes = level_rows(cases["few_rows"][0])
    assert sizes[0] >= ad._LEVEL_ROWS > sizes[-1] and len(sizes) > 200


def test_place_rows_rejects_parts_that_do_not_fit_the_mask():
    present = np.array([[True, True, True], [True, False, True]])
    with pytest.raises(ValueError, match="do not fit"):
        ad.place_rows([np.ones((3, 2)), np.ones((3, 2))], present)
    with pytest.raises(ValueError, match="do not fit"):
        ad.place_rows([np.ones((3, 2)), np.ones((2, 4))], present)
    with pytest.raises(ValueError, match="one mask row per part"):
        ad.place_rows([np.ones((3, 2))], present)


@pytest.mark.parametrize("n_rows", [1, 7])
def test_place_rows_matches_the_composite_oracle(n_rows):
    # source 0 everywhere, as the structure is; then a source present
    # everywhere, a partial one and an absent one
    rng = np.random.default_rng(n_rows)
    partial = rng.random(n_rows) < 0.5
    partial[0] = n_rows > 1
    present = np.stack([np.ones(n_rows, bool), np.ones(n_rows, bool), partial,
                        np.zeros(n_rows, bool)])
    start = [rng.normal(size=(int(row.sum()), 4)).astype(np.float32) for row in present]
    coef = ad.Tensor(rng.normal(size=(4, n_rows, 4)))
    got = []
    for place in (ad.place_rows, composite_place_rows):
        ad.reset_tape()
        # fuse passes a source with no rows as a constant
        parts = [ad.parameter(a) if len(a) else ad.Tensor(a) for a in start]
        out = place(parts, present)
        ad.backward((out * coef).sum())
        got.append((out.data, [p.grad for p in parts if p.requires_grad]))
    (fused, fused_grads), (oracle, oracle_grads) = got
    assert fused.dtype == oracle.dtype == np.float32
    assert fused.tobytes() == oracle.tobytes()
    assert len(fused_grads) == len(oracle_grads) == 2 + (n_rows > 1)
    for a, b in zip(fused_grads, oracle_grads):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def small_store():
    shapes = {"a": (2, 3), **{f"w.{i}": (3, 4) for i in range(3)},
              **{f"b.{i}": (4,) for i in range(3)}}
    store = ad.ParamStore(shapes, {"w.*": ["w.0", "w.1", "w.2"], "b.*": ["b.0", "b.1", "b.2"]})
    rng = np.random.default_rng(8)
    for p in store.values():
        p.data[...] = rng.normal(size=p.shape)
    return store


def test_store_banks_are_views_that_hand_members_their_gradients():
    store = small_store()
    x = ad.Tensor(np.arange(6.0).reshape(2, 3))
    w, b = store.bank("w.*"), store.bank("b.*")
    assert w.shape == (3, 3, 4) and b.shape == (3, 1, 4)
    for bank, key in ((w, "w"), (b, "b")):
        assert np.shares_memory(bank.data, store.flat)
        stacked = np.stack([store[f"{key}.{i}"].data for i in range(3)])
        np.testing.assert_array_equal(bank.data, stacked.reshape(bank.shape))
    ad.backward(square(ad.affine(x, w, b)).sum())
    assert store["a"].grad is None
    for i in range(3):
        # member i's gradient is that of its own layer's share of the loss
        wi, bi = ad.parameter(store[f"w.{i}"].data), ad.parameter(store[f"b.{i}"].data)
        ad.backward(square(ad.affine(x, wi, bi)).sum())
        np.testing.assert_allclose(store[f"w.{i}"].grad, wi.grad, rtol=1e-6)
        np.testing.assert_allclose(store[f"b.{i}"].grad, bi.grad, rtol=1e-6)


def test_store_takes_values_in_place_and_refuses_rebinding():
    store = small_store()
    member = store["w.1"]
    member.data[...] = np.full((3, 4), 0.5)  # float64 into a float32 store
    assert member.data.dtype == np.float32 and np.shares_memory(member.data, store.flat)
    np.testing.assert_array_equal(store.bank("w.*").data[1], np.full((3, 4), 0.5))
    ad.backward(store.bank("w.*").sum())
    flat, grad_flat = store.flat.tobytes(), store.grad_flat.tobytes()
    # the type, not the text: Python 3.10 and 3.11 word the error differently
    with pytest.raises(AttributeError):
        member.data = np.zeros((3, 4), dtype=np.float32)
    with pytest.raises(AttributeError):
        member.grad = np.zeros((3, 4), dtype=np.float32)
    with pytest.raises(AttributeError):
        member.zero_grad()  # the store's zero_grad drops every gradient
    with pytest.raises(AttributeError):
        store["a"].grad = np.ones((2, 3), dtype=np.float32)  # a block without a gradient
    assert store.flat.tobytes() == flat and store.grad_flat.tobytes() == grad_flat
    assert np.shares_memory(member.data, store.flat) and store["a"].grad is None
    np.testing.assert_array_equal(member.grad, np.ones((3, 4)))


def test_store_rejects_scattered_banks():
    with pytest.raises(ad.StoreError, match="bank x.\\* is not a run"):
        ad.ParamStore({"x.0": (3,), "y": (3,), "x.1": (3,)}, {"x.*": ["x.0", "x.1"]})


def _fd_case(name, build, n_params, shapes, low=-2.0, high=2.0, positive=False, const=()):
    return (name, build, n_params, shapes, low, high, positive, const)


_COEF_3x2x3 = np.arange(18).reshape(3, 2, 3) * 0.1 - 0.7
_MI_PRESENT = np.array([[1, 1, 1, 0, 1, 0, 0],
                        [1, 0, 1, 1, 1, 1, 0],
                        [0, 1, 1, 1, 0, 1, 1],
                        [0, 0, 0, 1, 0, 1, 1]], dtype=bool)
_MI_UPSTREAM = np.arange(16).reshape(4, 4) * 0.3 - 2.0
_COEF_3x5 = np.arange(15).reshape(3, 5) * 0.1 - 0.6
_PLACE_PRESENT = np.array([[True, True], [False, True]])
# row 1 of x and column 2 of the bias zeroed: that pre-activation is exactly 0
# for any parameters, on relu's kink
_X_ROW1_OFF = np.array([[1.0], [0.0], [1.0]])
_B_COL2_OFF = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
_COEF_4x1 = np.array([[0.7], [-1.3], [0.4], [1.1]])
_ROW0_OFF = np.array([[0.0], [1.0], [1.0], [1.0]])


def _zero_distance_row0(p):
    """Scorer operands whose row 0 has phase 0 and its head as its tail: a
    distance of exactly 0 for any parameters."""
    off = ad.Tensor(_ROW0_OFF)
    return p[0], p[1] * off, p[2] * off + p[0] * ad.Tensor(1.0 - _ROW0_OFF)



# each case: scalar loss built from parameter tensors; checked against FD.
# Operands listed in const are plain Tensors: they must get no .grad
_GRAD_CASES = [
    _fd_case("add_broadcast", lambda p: (p[0] + p[1]).sum(), 2, [(3, 4), (4,)]),
    _fd_case("sub", lambda p: square(p[0] - p[1]).sum(), 2, [(3, 4), (3, 4)]),
    _fd_case("mul_broadcast", lambda p: (p[0] * p[1]).sum(), 2, [(3, 4), (3, 1)]),
    _fd_case("neg", lambda p: square(-p[0]).sum(), 1, [(5,)]),
    _fd_case("sigmoid", lambda p: sigmoid(p[0]).sum(), 1, [(7,)]),
    _fd_case("logsigmoid", lambda p: ad.logsigmoid(p[0]).sum(), 1, [(7,)]),
    _fd_case("square", lambda p: square(p[0]).sum(), 1, [(4, 3)]),
    _fd_case("sqrt", lambda p: sqrt(p[0]).sum(), 1, [(6,)], low=0.2, high=2.0, positive=True),
    _fd_case("cos_sin", lambda p: (cos(p[0]) * sin(p[0])).sum(), 1, [(8,)]),
    _fd_case("sum_axis", lambda p: square(p[0].sum(axis=0)).sum(), 1, [(4, 3)]),
    _fd_case("mean_axis", lambda p: square(tensor_mean(p[0], axis=1)).sum(), 1, [(4, 3)]),
    _fd_case(
        "softmax",
        lambda p: (ad.softmax(p[0], axis=-1) * ad.Tensor(np.arange(15).reshape(3, 5) * 0.1)).sum(),
        1,
        [(3, 5)],
    ),
    _fd_case("matmul_chain", lambda p: relu(p[0] @ p[1]).sum(), 2, [(3, 4), (4, 2)]),
    _fd_case("matmul_const_left", lambda p: square(p[0] @ p[1]).sum(), 2, [(3, 4), (4, 2)],
             const=(0,)),
    _fd_case("matmul_const_right", lambda p: square(p[0] @ p[1]).sum(), 2, [(3, 4), (4, 2)],
             const=(1,)),
    _fd_case("mul_const_left", lambda p: square(p[0] * p[1]).sum(), 2, [(3, 1), (3, 4)],
             const=(0,)),
    _fd_case("mul_const_right", lambda p: square(p[0] * p[1]).sum(), 2, [(3, 4), (3, 4)],
             const=(1,)),
    _fd_case("clamp_min", lambda p: clamp_min(p[0], 0.5).sum(), 1, [(6,)], low=0.6, high=2.0),
    _fd_case("gather", lambda p: square(ad.gather_rows(p[0], [0, 2, 2, 1])).sum(), 1, [(4, 3)]),
    _fd_case("place_rows", lambda p: (ad.place_rows([p[0], p[1]], _PLACE_PRESENT)
                                      * ad.Tensor(_COEF_3x2x3[:2, :, :2])).sum(),
             2, [(2, 2), (1, 2)]),
    _fd_case("slice_cols", lambda p: square(slice_cols(p[0], 1, 3)).sum(), 1, [(3, 4)]),
    _fd_case("stack", lambda p: (ad.stack([p[0], p[1], p[0]]) * ad.Tensor(_COEF_3x2x3)).sum(),
             2, [(2, 3), (2, 3)]),
    _fd_case("matmul_batched", lambda p: square(p[0] @ p[1]).sum(), 2, [(2, 3, 4), (2, 4, 5)]),
    _fd_case("matmul_broadcast_left", lambda p: relu(p[0] @ p[1]).sum(), 2, [(3, 4), (2, 4, 5)]),
    _fd_case("matmul_broadcast_right", lambda p: square(p[0] @ p[1]).sum(),
             2, [(2, 3, 4), (4, 5)]),
    _fd_case("weighted_sum_rows", lambda p: square(ad.weighted_sum(p[0], p[1])).sum(),
             2, [(4, 3), (3, 4, 2)]),
    _fd_case("weighted_sum_shared", lambda p: square(ad.weighted_sum(p[0], p[1])).sum(),
             2, [(1, 3), (3, 4, 2)]),
    _fd_case("affine", lambda p: square(ad.affine(p[0], p[1], p[2])).sum(),
             3, [(3, 4), (4, 5), (5,)]),
    _fd_case("affine_relu", lambda p: (ad.affine(p[0], p[1], p[2], relu=True)
                                       * ad.Tensor(_COEF_3x5)).sum(), 3, [(3, 4), (4, 5), (5,)]),
    _fd_case("affine_broadcast_3d", lambda p: square(ad.affine(p[0], p[1], p[2], relu=True)).sum(),
             3, [(3, 4), (2, 4, 5), (2, 1, 5)]),
    _fd_case("affine_batched_3d", lambda p: square(ad.affine(p[0], p[1], p[2])).sum(),
             3, [(2, 3, 4), (2, 4, 5), (2, 1, 5)]),
    _fd_case("affine_const_x", lambda p: square(ad.affine(p[0], p[1], p[2], relu=True)).sum(),
             3, [(3, 4), (4, 5), (5,)], const=(0,)),
    _fd_case("affine_zero_preactivation",
             lambda p: (ad.affine(p[0] * ad.Tensor(_X_ROW1_OFF), p[1], p[2] * ad.Tensor(_B_COL2_OFF),
                                  relu=True) * ad.Tensor(_COEF_3x5)).sum(),
             3, [(3, 4), (4, 5), (5,)]),
    _fd_case("score_batch_l2", lambda p: (scoring.score_batch(*_zero_distance_row0(p), "l2")
                                          * ad.Tensor(_COEF_4x1)).sum(),
             3, [(4, 6), (4, 3), (4, 6)]),
    _fd_case("score_batch_l1", lambda p: (scoring.score_batch(*_zero_distance_row0(p), "l1")
                                          * ad.Tensor(_COEF_4x1)).sum(),
             3, [(4, 6), (4, 3), (4, 6)]),
    # four sources, sources 0 and 3 share no row, pair (1, 2) shares three;
    # an asymmetric upstream weight checks both halves of the matrix
    _fd_case("mi_matrix", lambda p: (ad.mi_matrix(ad.softmax(p[0], axis=-1), _MI_PRESENT, 1e-12)
                                     * ad.Tensor(_MI_UPSTREAM)).sum(), 1, [(4, 7, 3)]),
    # unnormalised rows, since a softmax in front hides any gradient term that
    # is constant along a row; a total mass below 1 keeps every MI positive
    _fd_case("mi_matrix_raw", lambda p: (ad.mi_matrix(p[0], _MI_PRESENT, 1e-12)
                                         * ad.Tensor(_MI_UPSTREAM)).sum(), 1, [(4, 7, 3)],
             low=0.01, high=0.2, positive=True),
]


@pytest.mark.parametrize("case", _GRAD_CASES, ids=[c[0] for c in _GRAD_CASES])
def test_gradients_match_finite_differences(case):
    """Analytic gradients within 1e-3 relative of central differences (step 1e-3)."""
    name, build, n_params, shapes, low, high, positive, const = case
    rng = np.random.default_rng(42)
    with ad.using_dtype(np.float64):
        for _ in range(3):
            params = []
            for i, shape in enumerate(shapes):
                x = rng.uniform(low, high, shape)
                if not positive:
                    # keep relu/abs-style kinks farther than the probe step
                    x = np.where(np.abs(x) < 2e-2, x + 5e-2, x)
                params.append(ad.Tensor(x) if i in const else ad.parameter(x))
            ad.reset_tape()
            loss = build(params)
            ad.backward(loss)
            assert all(params[i].grad is None for i in const), name
            trained = [p for i, p in enumerate(params) if i not in const]
            analytic = [p.grad.copy() for p in trained]

            def f():
                ad.reset_tape()
                with ad.no_grad():
                    return float(build(params).data)

            numeric = finite_difference_grads(f, [p.data for p in trained])
            for a, n in zip(analytic, numeric):
                assert relative_block_error(a, n) < 1e-3, name


# ---------------------------------------------------------------------------
# what the tape keeps alive


def _keeps_the_other(flags):
    """A binary rule's operands kept: each one only for the other's gradient."""
    return {i for i in (0, 1) if flags[1 - i]}


_MI_DISTS = np.full((4, 7, 3), 1.0 / 3.0) + np.arange(3) * 0.05 - 0.05

# each case: op on its operand tensors, their shapes, and the arrays its node
# keeps for a requires_grad pattern: operand indices, and "out" for the output
_RETENTION_CASES = [
    ("add", lambda o: ad.add(*o), [(3, 4), (4,)], lambda f: set()),
    ("sub", lambda o: ad.sub(*o), [(3, 4), (3, 4)], lambda f: set()),
    ("mul", lambda o: ad.mul(*o), [(3, 4), (3, 1)], _keeps_the_other),
    ("matmul", lambda o: ad.matmul(*o), [(3, 4), (4, 2)], _keeps_the_other),
    ("affine", lambda o: ad.affine(*o), [(8, 4), (4, 6), (6,)], _keeps_the_other),
    ("affine_relu", lambda o: ad.affine(*o, relu=True), [(8, 4), (4, 6), (6,)],
     lambda f: _keeps_the_other(f) | {"out"}),
    ("affine_bank", lambda o: ad.affine(*o, relu=True), [(8, 4), (3, 4, 6), (3, 1, 6)],
     lambda f: _keeps_the_other(f) | {"out"}),
    ("weighted_sum", lambda o: ad.weighted_sum(*o), [(4, 3), (3, 4, 2)], _keeps_the_other),
    ("gather_rows", lambda o: ad.gather_rows(o[0], [2, 0, 2]), [(3, 4)], lambda f: set()),
    ("place_rows", lambda o: ad.place_rows(o, _PLACE_PRESENT), [(2, 2), (1, 2)],
     lambda f: set()),
    ("softmax", lambda o: ad.softmax(o[0]), [(3, 5)], lambda f: {"out"}),
    ("logsigmoid", lambda o: ad.logsigmoid(o[0]), [(7,)], lambda f: {0}),
    ("sum", lambda o: o[0].sum(axis=0), [(4, 3)], lambda f: set()),
    ("stack", lambda o: ad.stack(o), [(2, 3)] * 3, lambda f: set()),
    ("mi_matrix", lambda o: ad.mi_matrix(o[0], _MI_PRESENT, 1e-12), [(4, 7, 3)],
     lambda f: set()),
    # the heads for the phases' gradient; never the tails or the phases
    ("score_batch", lambda o: scoring.score_batch(*o), [(5, 6), (5, 3), (5, 6)],
     lambda f: {0} if f[1] else set()),
]


def _retention_params():
    for name, build, shapes, kept in _RETENTION_CASES:
        for flags in itertools.product((False, True), repeat=len(shapes)):
            if any(flags):
                splits = ("whole", "split") if name.startswith("affine") else ("whole",)
                for split in splits:
                    label = name + ("_split" if split == "split" else "") + "-" + "".join(
                        "g" if f else "c" for f in flags)
                    yield pytest.param(build, shapes, flags, kept(flags), split == "split",
                                       id=label)


@pytest.mark.parametrize("build, shapes, flags, kept, split", _retention_params())
def test_a_node_keeps_only_what_its_rule_reads(build, shapes, flags, kept, split, monkeypatch):
    # every operand is an interior tensor (the output of a node) where it
    # needs a gradient, else a constant: once the caller drops its handles,
    # the arrays alive are the ones the op's rule reads, and backward frees
    # those too
    if split:
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        monkeypatch.setattr(ad, "_BLOCK_WORK", 1)
    rng = np.random.default_rng(17)
    with ad.using_dtype(np.float64):
        starts = [_MI_DISTS.copy() if shape == _MI_DISTS.shape else rng.uniform(0.5, 1.5, shape)
                  for shape in shapes]
        leaves = [ad.parameter(a) if grad else None for a, grad in zip(starts, flags)]
        ops = [ad.Tensor(a) if leaf is None else leaf * 1.0 for a, leaf in zip(starts, leaves)]
        del starts
        out = build(ops)
        loss = (out * ad.Tensor(rng.uniform(0.5, 1.5, out.shape))).sum()
    refs = {i: weakref.ref(op.data) for i, op in enumerate(ops)}
    refs["out"] = weakref.ref(out.data)
    del ops, out
    assert {k for k, ref in refs.items() if ref() is not None} == kept
    ad.backward(loss)
    assert ad.tape_size() == 0
    assert all(ref() is None for ref in refs.values())
    assert all(leaf.grad is not None for leaf in leaves if leaf is not None)


def test_a_bank_node_keeps_no_view_of_the_store():
    store = small_store()
    bank = store.bank("w.*")
    view = weakref.ref(bank.data)
    assert view() is not None
    loss = (ad.affine(ad.Tensor(np.ones((2, 3))), bank, store.bank("b.*")) * 1.0).sum()
    del bank
    # the rule reads only the members' shape; the members are leaves
    assert view() is None
    ad.backward(loss)
    assert all(store[f"w.{i}"].grad is not None for i in range(3))


def test_gradients_flow_by_key_when_a_freed_tensor_address_is_reused():
    # each interior h is dropped once used, and a new leaf is made at once,
    # so that it may take h's address while h's node is still on the tape:
    # a flow keyed by id() would then mix h's gradient with the leaf's
    rng = np.random.default_rng(5)
    a = rng.uniform(0.5, 1.5, (3, 4))
    extra = rng.uniform(0.5, 1.5, (8, 3, 4))
    coef = rng.uniform(-1.0, 1.0, (3, 4))
    reused = []

    def build(grad):
        x = ad.Tensor(a, requires_grad=grad)
        loss, leaves = ad.Tensor(0.0), [x]
        for i, e in enumerate(extra):
            h = square(x * float(i + 1))
            part = (h * ad.Tensor(coef)).sum()
            held = id(h)
            del h
            leaves.append(ad.Tensor(e, requires_grad=grad))
            reused.append(id(leaves[-1]) == held)
            loss = loss + part + (square(leaves[-1]) * x).sum()
        return loss, leaves

    with ad.using_dtype(np.float64):
        loss, leaves = build(True)
        assert any(reused), "no new leaf took a freed tensor's address"
        ad.backward(loss)

        def f():
            with ad.no_grad():
                return float(build(False)[0].data)

        numeric = finite_difference_grads(f, [a, extra])
    assert relative_block_error(leaves[0].grad, numeric[0]) < 1e-6
    assert relative_block_error(np.stack([t.grad for t in leaves[1:]]), numeric[1]) < 1e-6
