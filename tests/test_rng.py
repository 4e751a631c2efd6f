import warnings

import numpy as np

from fairtree.rng import (
    below_array,
    finalize,
    finalize_array,
    fold_array,
    stream_key,
    stream_key_array,
    uniforms_at_array,
)

from reference import TraversalStream, uniform_at


def test_scalar_and_array_finalize_agree():
    rng = np.random.default_rng(1)
    words = rng.integers(0, 2**64, size=200, dtype=np.uint64)
    expected = np.array([finalize(int(w)) for w in words], dtype=np.uint64)
    np.testing.assert_array_equal(finalize_array(words), expected)


def test_scalar_and_array_stream_keys_agree():
    ids = np.arange(50, dtype=np.uint64)
    keys = stream_key_array(123, ids, np.uint64(7), np.uint64(3))
    expected = np.array(
        [stream_key(123, int(i), 7, 3) for i in range(50)], dtype=np.uint64
    )
    np.testing.assert_array_equal(keys, expected)


def test_folding_words_onto_keys_equals_the_scalar_stream_key():
    # a row's (seed, stream id) key folded once, then (simulation, tree)
    # words folded onto it, is the key of (seed, stream id, simulation, tree)
    rng = np.random.default_rng(4)
    seeds, ids, sims, trees = (rng.integers(0, 2**64, size=60, dtype=np.uint64) for _ in range(4))
    keys = np.array([stream_key(int(s), int(i)) for s, i in zip(seeds, ids)], dtype=np.uint64)
    before = keys.copy()
    expected = [stream_key(int(s), int(i), int(m), int(t))
                for s, i, m, t in zip(seeds, ids, sims, trees)]
    np.testing.assert_array_equal(fold_array(keys, sims, trees), expected)
    np.testing.assert_array_equal(keys, before)  # keys are not written
    # broadcast: keys[row] by simulation by tree, as Monte Carlo folds a block
    grid = fold_array(keys[:3, None, None], sims[:4], trees[:5, None])
    assert grid.shape == (3, 5, 4)
    assert grid[2, 4, 3] == stream_key(int(seeds[2]), int(ids[2]), int(sims[3]), int(trees[4]))
    # into a buffer: the same keys, written only to that buffer
    out = np.zeros((3, 5, 4), dtype=np.uint64)
    assert fold_array(keys[:3, None, None], sims[:4], trees[:5, None], out=out) is out
    np.testing.assert_array_equal(out, grid)
    np.testing.assert_array_equal(keys, before)
    # the draw words made in the keys' own buffer: the same draw tests
    p = rng.random((3, 5, 1))
    assert below_array(grid, 2, p).tolist() == below_array(out, 2, p, out=out).tolist()
    # stream_key_array is the fold after finalize(seed)
    for words in ((), (ids,), (ids, 7, sims)):
        np.testing.assert_array_equal(stream_key_array(11, *words),
                                      fold_array(np.array(finalize(11), dtype=np.uint64), *words))


def test_scalar_and_array_uniforms_agree():
    keys = stream_key_array(9, np.arange(100, dtype=np.uint64))
    for step in (0, 1, 5):
        batch = uniforms_at_array(keys, step)
        expected = np.array([uniform_at(int(k), step) for k in keys])
        np.testing.assert_array_equal(batch, expected)
    # one draw index per key, as the batch walk passes node depths
    steps = np.random.default_rng(2).integers(0, 40, size=100).astype(np.int32)
    batch = uniforms_at_array(keys, steps)
    expected = np.array([uniform_at(int(k), int(j)) for k, j in zip(keys, steps)])
    np.testing.assert_array_equal(batch, expected)
    # indices broadcast against keys: one row of draws per index
    grid = uniforms_at_array(keys[None, :], steps[:7, None])
    expected = np.array([[uniform_at(int(k), int(j)) for k in keys] for j in steps[:7]])
    np.testing.assert_array_equal(grid, expected)


def test_integer_flip_test_equals_uniform_comparison():
    # below_array compares the draw word with ceil(p * 2**53) << 11; it
    # must agree with forming the uniform for every p, including those
    # next to a multiple of 2**-53 (the uniforms' grid)
    rng = np.random.default_rng(3)
    keys = stream_key_array(5, np.arange(20_000, dtype=np.uint64))
    grid = np.array([1, 2, 3, 2**20 + 1, 2**50 - 1, 2**51, 2**52 - 1]) * 2.0**-53
    edges = np.r_[0.0, 2.0**-53, 0.1, 0.5, grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0),
                  np.nextafter(0.5, 0.0), np.nextafter(0.1, 1.0)]
    index = rng.integers(0, 40, size=keys.size).astype(np.int32)
    for i in (0, 7, index):
        u = uniforms_at_array(keys, i)
        # chances at the draws themselves and at their neighbours
        at_u = np.nextafter(u, [[0.0], [1.0]])
        for p in (*edges, u, *at_u):
            np.testing.assert_array_equal(below_array(keys, i, p), u < p)
    # indices and chances broadcast against keys, as a step's draws do
    u = uniforms_at_array(keys[None, :], index[:5, None])
    p = np.r_[0.0, 2.0**-53, 0.1, 0.5, u[4, 0]][:, None]
    np.testing.assert_array_equal(below_array(keys[None, :], index[:5, None], p), u < p)


def test_flip_test_is_exact_up_to_one():
    # p * 2**53 reaches 2**53 at p = 1, where a shifted bound would wrap to
    # 0; a vote's chance is often exactly 1, and every draw is below it
    keys = stream_key_array(8, np.arange(20_000, dtype=np.uint64))
    below_one = np.nextafter(1.0, 0.0)
    for i in (0, 3):
        u = uniforms_at_array(keys, i)
        for p in (0.0, below_one, 1.0):
            np.testing.assert_array_equal(below_array(keys, i, p), u < p)
        assert not below_array(keys, i, 0.0).any()
        assert below_array(keys, i, 1.0).all()
        assert below_array(keys, i, np.r_[below_one, 1.0, 2.0][:, None])[1:].all()


def test_scalar_keys_draw_without_overflow_warnings():
    # a numpy scalar key wraps modulo 2**64 like an array key, with no
    # RuntimeWarning from scalar arithmetic
    keys = stream_key_array(3, np.arange(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in keys:
            for index in (2, np.arange(3)):
                want = np.array([uniform_at(int(key), int(i)) for i in np.ravel(index)])
                np.testing.assert_array_equal(np.ravel(uniforms_at_array(key, index)), want)
                np.testing.assert_array_equal(np.ravel(below_array(key, index, 0.5)), want < 0.5)


def test_uniforms_lie_in_unit_interval():
    keys = stream_key_array(42, np.arange(10_000, dtype=np.uint64))
    u = uniforms_at_array(keys, 0)
    assert u.min() >= 0.0 and u.max() < 1.0
    # crude uniformity sanity
    assert abs(u.mean() - 0.5) < 0.02


def test_streams_are_deterministic_and_distinct():
    a = TraversalStream.derive(7, 1, 2, 3)
    b = TraversalStream.derive(7, 1, 2, 3)
    c = TraversalStream.derive(7, 1, 2, 4)
    seq_a = [a.next_uniform() for _ in range(8)]
    seq_b = [b.next_uniform() for _ in range(8)]
    seq_c = [c.next_uniform() for _ in range(8)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_stream_draws_match_indexed_uniforms():
    key = stream_key(11, 4, 0, 2)
    stream = TraversalStream(key)
    draws = [stream.next_uniform() for _ in range(6)]
    assert draws == [uniform_at(key, j) for j in range(6)]


def test_negative_and_large_seeds_are_masked():
    assert stream_key(-1, 5) == stream_key(-1 & (2**64 - 1), 5)
    assert stream_key(2**80 + 3, 5) == stream_key((2**80 + 3) & (2**64 - 1), 5)
