"""Tests for the deterministic RNG tree."""

import numpy as np

from repro.utils.rng import RngTree, rng_or_default, spawn_rngs


class TestRngTree:
    def test_same_name_same_stream(self):
        a = RngTree(7).generator("x", 3).integers(0, 1 << 30, 10)
        b = RngTree(7).generator("x", 3).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = RngTree(7).generator("x", 0).integers(0, 1 << 30, 10)
        b = RngTree(7).generator("x", 1).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_different_names_differ(self):
        a = RngTree(7).generator("x", 0).integers(0, 1 << 30, 10)
        b = RngTree(7).generator("y", 0).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngTree(1).generator("x", 0).integers(0, 1 << 30, 10)
        b = RngTree(2).generator("x", 0).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_generators_list(self):
        gens = RngTree(0).generators("ranks", 5)
        assert len(gens) == 5
        draws = [g.integers(0, 1 << 30) for g in gens]
        assert len(set(draws)) > 1

    def test_subtree_independent_and_deterministic(self):
        s1 = RngTree(5).subtree("child").generator("x").integers(0, 1 << 30, 5)
        s2 = RngTree(5).subtree("child").generator("x").integers(0, 1 << 30, 5)
        parent = RngTree(5).generator("x").integers(0, 1 << 30, 5)
        assert np.array_equal(s1, s2)
        assert not np.array_equal(s1, parent)

    def test_streams_are_pinned(self):
        """Stream derivation is part of every committed baseline: these
        draws must not change, and a repeated (memoized) name must give the
        same stream as its first use."""
        pinned = {
            (0, "hss-sample", 0): [114345357, 117656307, 987104527],
            (1, "hss-sample", 95): [978607951, 76796577, 491334602],
            (7, "sampling", 3): [549794228, 613793363, 294287777],
            (2**40, "dataset", 0): [389020214, 883589651, 945041901],
        }
        for _ in range(2):
            for (seed, name, index), want in pinned.items():
                got = RngTree(seed).generator(name, index).integers(0, 10**9, 3)
                assert got.tolist() == want, (seed, name, index)
        child = RngTree(5).subtree("chaos").generator("jitter", 2)
        assert child.integers(0, 10**9, 3).tolist() == [391295875, 266417893, 192684591]

    def test_seed_property(self):
        assert RngTree(42).seed == 42


class TestSpawnRngs:
    def test_count_and_independence(self):
        gens = spawn_rngs(0, 4)
        assert len(gens) == 4
        a, b = gens[0].integers(0, 1 << 30, 8), gens[1].integers(0, 1 << 30, 8)
        assert not np.array_equal(a, b)

    def test_deterministic(self):
        a = spawn_rngs(9, 2)[1].integers(0, 1 << 30, 8)
        b = spawn_rngs(9, 2)[1].integers(0, 1 << 30, 8)
        assert np.array_equal(a, b)


class TestRngOrDefault:
    def test_passthrough(self):
        g = np.random.default_rng(0)
        assert rng_or_default(g) is g

    def test_from_int(self):
        a = rng_or_default(3).integers(0, 100, 5)
        b = rng_or_default(3).integers(0, 100, 5)
        assert np.array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(rng_or_default(None), np.random.Generator)
