import math
import struct

import numpy as np
import pytest

from wagmf.analysis import fd_gradient_check
from wagmf.errors import (
    LabelOutOfRange,
    MagicMismatch,
    NonFiniteInput,
    ParseError,
    ShapeMismatch,
)
from wagmf.problems import (
    Dataset,
    MinibatchOracle,
    Quadratic,
    ReddiOnline,
    ReddiStochastic,
    RoundRng,
    SoftmaxObjective,
    gaussian_blobs,
    load_dataset,
    pack_params,
    softmax_objective,
    unpack_params,
)


# ---------------------------------------------------------------- round rng


def test_round_rng_is_order_independent():
    a = RoundRng(7)
    b = RoundRng(7)
    forward = [a.uniforms(t)[t - 1] for t in range(1, 50)]
    backward = [b.uniforms(t)[t - 1] for t in range(49, 0, -1)]
    assert forward == backward[::-1]
    # random-access far beyond the current cache, then back
    c = RoundRng(7)
    far = c.uniforms(10_000)[-1]
    assert c.uniforms(3)[2] == forward[2]
    assert c.uniforms(10_000)[-1] == far


def test_round_rng_children_are_stable_and_distinct():
    r = RoundRng(123)
    x1 = r.child(0).uniform(size=4)
    x2 = RoundRng(123).child(0).uniform(size=4)
    y = RoundRng(123).child(1).uniform(size=4)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, y)
    # children do not disturb the per-round stream
    r2 = RoundRng(123)
    u_before = r2.uniforms(5)[4]
    r2.child(9).uniform(size=100)
    assert r2.uniforms(5)[4] == u_before


def test_round_rng_seeds_decorrelate():
    u = [RoundRng(s).uniforms(1)[0] for s in range(20)]
    assert len(set(u)) == 20


# ---------------------------------------------------------------- reddi streams


def test_stochastic_stream_values_and_frequency():
    orc = ReddiStochastic()
    assert orc.linear and orc.stochastic and orc.dim == 1
    assert orc.known_optimum[0] == -1.0
    rng = RoundRng(0)
    x = np.array([0.5])
    slopes = []
    for t in range(1, 100_001):
        loss, g = orc.evaluate(t, x, rng)
        assert g[0] in (1010.0, -10.0)
        assert loss == g[0] * 0.5
        slopes.append(g[0])
    slopes = np.array(slopes)
    frac_hi = np.mean(slopes == 1010.0)
    # binomial(1e5, 0.01): sd ~ 3.1e-4, allow five sigma
    assert abs(frac_hi - 0.01) < 5 * math.sqrt(0.01 * 0.99 / 100_000)
    mean_slope = slopes.mean()
    assert abs(mean_slope - 0.2) < 5 * 1010 * math.sqrt(0.01 / 100_000)


def test_stochastic_stream_reproducible_per_round():
    orc = ReddiStochastic()
    x = np.array([0.0])
    a = [orc.evaluate(t, x, RoundRng(5))[1][0] for t in (3, 1, 4, 1, 5)]
    rng = RoundRng(5)
    b = [orc.evaluate(t, x, rng)[1][0] for t in (3, 1, 4, 1, 5)]
    assert a == b
    assert a[1] == a[3]  # same round, same draw


def test_online_stream_is_periodic():
    orc = ReddiOnline()
    assert orc.linear and not orc.stochastic
    x = np.array([1.0])
    for t in range(1, 500):
        _, g = orc.evaluate(t, x)
        assert g[0] == (1010.0 if t % 101 == 1 else -10.0)
    # each full period pushes net +10 toward the left endpoint
    total = sum(orc.evaluate(t, x)[1][0] for t in range(1, 102))
    assert total == 1010.0 - 100 * 10.0


# ---------------------------------------------------------------- quadratic


def test_quadratic_values_and_convexity():
    orc = Quadratic([2.0, 0.5], [1.0, -1.0])
    assert orc.time_invariant and orc.dim == 2
    x = np.array([3.0, 0.0])
    loss, g = orc.evaluate(1, x)
    # 0.5*(2*4 + 0.5*1) = 4.25; g = a*(x - x*)
    assert loss == pytest.approx(4.25)
    assert np.allclose(g, [4.0, 0.5])
    l0, g0 = orc.evaluate(1, orc.known_optimum)
    assert l0 == 0.0 and np.all(g0 == 0.0)
    # first-order convexity: f(y) >= f(x) + g(x).(y - x)
    rng = np.random.default_rng(1)
    for _ in range(100):
        xa, xb = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
        fa, ga = orc.evaluate(1, xa)
        fb, _ = orc.evaluate(1, xb)
        assert fb >= fa + ga @ (xb - xa) - 1e-9


def test_quadratic_argument_validation():
    with pytest.raises(ValueError):
        Quadratic([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(Exception):
        Quadratic([1.0], [0.0, 0.0])


# ---------------------------------------------------------------- datasets


def test_dataset_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ShapeMismatch):
        Dataset(X, np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(LabelOutOfRange):
        Dataset(X, np.array([0, 1, 2, 0]), 2)
    with pytest.raises(NonFiniteInput):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 1)


def test_blobs_are_balanced_and_reproducible():
    d1 = gaussian_blobs(n=90, d=5, k=3, seed=2)
    d2 = gaussian_blobs(n=90, d=5, k=3, seed=2)
    d3 = gaussian_blobs(n=90, d=5, k=3, seed=3)
    assert d1.features.shape == (90, 5) and d1.num_classes == 3
    counts = np.bincount(d1.labels, minlength=3)
    assert np.all(counts == 30)
    assert np.array_equal(d1.features, d2.features) and np.array_equal(d1.labels, d2.labels)
    assert not np.array_equal(d1.features, d3.features)
    # classes actually separate: per-class means differ
    mus = [d1.features[d1.labels == c].mean(axis=0) for c in range(3)]
    assert np.linalg.norm(mus[0] - mus[1]) > 0.5


def test_csv_roundtrip_and_errors(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("1.0,2.0,0\n-1.5,0.25,2\n0.0,0.0,1\n")
    ds = load_dataset(str(p), "csv")
    assert ds.n == 3 and ds.d == 2 and ds.num_classes == 3
    assert np.allclose(ds.features, [[1.0, 2.0], [-1.5, 0.25], [0.0, 0.0]])
    assert np.array_equal(ds.labels, [0, 2, 1])

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ParseError) as ei:
        load_dataset(str(bad), "csv")
    assert "2" in str(ei.value)  # failing line is identified

    neg = tmp_path / "neg.csv"
    neg.write_text("1.0,-1\n")
    with pytest.raises(LabelOutOfRange):
        load_dataset(str(neg), "csv")

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(ParseError):
        load_dataset(str(ragged), "csv")


def _write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labs.idx"
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x803, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x801, n))
        f.write(labels.astype(np.uint8).tobytes())
    return ip, lp


def test_idx_roundtrip_and_errors(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(6, 3, 2), dtype=np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
    ip, lp = _write_idx_pair(tmp_path, images, labels)
    ds = load_dataset(f"{ip},{lp}", "idx")
    assert ds.n == 6 and ds.d == 6  # 3*2 pixels flattened
    assert np.array_equal(ds.labels, labels)
    assert np.allclose(ds.features, images.reshape(6, -1) / 255.0)
    assert ds.features.max() <= 1.0

    # wrong magic
    with open(tmp_path / "badmagic.idx", "wb") as f:
        f.write(struct.pack(">ii", 0x999, 6))
        f.write(labels.tobytes())
    with pytest.raises(MagicMismatch):
        load_dataset(f"{ip},{tmp_path / 'badmagic.idx'}", "idx")

    # truncated payload
    raw = open(ip, "rb").read()
    (tmp_path / "short.idx").write_bytes(raw[:-4])
    with pytest.raises(ParseError):
        load_dataset(f"{tmp_path / 'short.idx'},{lp}", "idx")

    with pytest.raises(ParseError):
        load_dataset(str(ip), "idx")  # missing the comma-separated label path


# ---------------------------------------------------------------- softmax


def test_softmax_loss_at_zero_is_log_k():
    for k in (2, 3, 7):
        ds = gaussian_blobs(n=4 * k, d=3, k=k, seed=1)
        loss, _ = softmax_objective(np.zeros((k, 3)), np.zeros(k), ds, reg=0.0)
        assert loss == pytest.approx(math.log(k), rel=1e-12)


def test_softmax_bias_gradient_vanishes_for_balanced_classes_at_zero():
    ds = gaussian_blobs(n=40, d=4, k=2, seed=6)
    _, g = softmax_objective(np.zeros((2, 4)), np.zeros(2), ds, reg=0.0)
    _, b = unpack_params(g, 2, 4)
    # P = 1/2 uniformly, so db_j = 1/2 - freq_j = 0 when classes are balanced
    assert np.allclose(b, 0.0, atol=1e-15)


def test_softmax_gradient_matches_finite_differences():
    ds = gaussian_blobs(n=30, d=4, k=3, seed=9)
    obj = SoftmaxObjective(ds, reg=1e-3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(obj.dim) * 0.3
    assert fd_gradient_check(obj.loss_and_grad, x) < 1e-7


def test_regularizer_hits_weights_not_biases():
    ds = gaussian_blobs(n=20, d=3, k=2, seed=3)
    x = np.random.default_rng(8).standard_normal(2 * 3 + 2)
    W, b = unpack_params(x, 2, 3)
    l0, g0 = softmax_objective(W, b, ds, reg=0.0)
    l1, g1 = softmax_objective(W, b, ds, reg=0.1)
    assert l1 == pytest.approx(l0 + 0.1 * np.sum(W * W), rel=1e-12)
    dW0, db0 = unpack_params(g0, 2, 3)
    dW1, db1 = unpack_params(g1, 2, 3)
    assert np.allclose(dW1 - dW0, 2 * 0.1 * W, rtol=1e-12)
    assert np.array_equal(db0, db1)


def test_softmax_is_stable_under_huge_logits():
    ds = gaussian_blobs(n=10, d=2, k=2, seed=0)
    W = np.full((2, 2), 500.0)
    W[1] *= -1
    loss, g = softmax_objective(W, np.zeros(2), ds, reg=0.0)
    assert np.isfinite(loss) and np.all(np.isfinite(g))


def test_pack_unpack_roundtrip():
    W = np.arange(6.0).reshape(2, 3)
    b = np.array([7.0, 8.0])
    x = pack_params(W, b)
    assert x.shape == (8,)
    W2, b2 = unpack_params(x, 2, 3)
    assert np.array_equal(W, W2) and np.array_equal(b, b2)


# ---------------------------------------------------------------- minibatches


def test_minibatch_partition_covers_each_epoch():
    ds = gaussian_blobs(n=25, d=3, k=5, seed=12)
    orc = MinibatchOracle(SoftmaxObjective(ds, reg=0.0), batch_size=7)
    assert orc.batches_per_epoch == 4  # 7+7+7+4
    rng = RoundRng(77)
    x = np.zeros(orc.dim)
    # reach inside: evaluating rounds 1..4 must consume a permutation of 0..24
    seen = []
    for t in range(1, 5):
        orc.evaluate(t, x, rng)
        epoch, slot = divmod(t - 1, 4)
        seen.extend(rng._perm[slot * 7 : (slot + 1) * 7].tolist())
    assert sorted(seen) == list(range(25))


def test_minibatch_weighted_mean_equals_full_gradient():
    ds = gaussian_blobs(n=25, d=3, k=5, seed=12)
    obj = SoftmaxObjective(ds, reg=1e-2)
    orc = MinibatchOracle(obj, batch_size=7)
    rng = RoundRng(31)
    x = np.random.default_rng(2).standard_normal(obj.dim) * 0.4
    acc = np.zeros(obj.dim)
    for t in range(1, 5):
        _, g = orc.evaluate(t, x, rng)
        bs = 7 if t < 4 else 4
        acc += (bs / 25) * g
    _, g_full = obj.loss_and_grad(x)
    assert np.allclose(acc, g_full, rtol=1e-10, atol=1e-12)


def test_minibatch_epochs_reshuffle_but_replay_identically():
    ds = gaussian_blobs(n=12, d=2, k=3, seed=5)
    orc = MinibatchOracle(SoftmaxObjective(ds, reg=0.0), batch_size=4)
    x = np.zeros(orc.dim)
    rng = RoundRng(9)
    orc.evaluate(1, x, rng)
    p0 = rng._perm.copy()
    orc.evaluate(4, x, rng)  # epoch 1 begins at t = 4
    p1 = rng._perm.copy()
    assert not np.array_equal(p0, p1)
    # replay with a fresh rng of the same seed reproduces both
    orc2 = MinibatchOracle(SoftmaxObjective(ds, reg=0.0), batch_size=4)
    rng2 = RoundRng(9)
    orc2.evaluate(4, x, rng2)
    assert np.array_equal(rng2._perm, p1)
    orc2.evaluate(2, x, rng2)
    assert np.array_equal(rng2._perm, p0)


def test_minibatch_full_loss_matches_objective():
    ds = gaussian_blobs(n=16, d=3, k=2, seed=4)
    obj = SoftmaxObjective(ds, reg=1e-3)
    orc = MinibatchOracle(obj, batch_size=5)
    x = np.random.default_rng(0).standard_normal(obj.dim)
    assert orc.full_loss(x) == obj.loss_and_grad(x)[0]
