"""Tests for the deterministic RNG registry."""

from repro.sim.rng import RngRegistry


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        rngs = RngRegistry(seed=1)
        assert rngs.stream("edge") is rngs.stream("edge")

    def test_different_names_are_independent(self):
        rngs = RngRegistry(seed=1)
        a = rngs.stream("edge").random(5)
        b = rngs.stream("cloud").random(5)
        assert not (a == b).all()

    def test_same_seed_reproduces_values(self):
        first = RngRegistry(seed=9).stream("edge").random(10)
        second = RngRegistry(seed=9).stream("edge").random(10)
        assert (first == second).all()

    def test_different_seeds_differ(self):
        first = RngRegistry(seed=1).stream("edge").random(10)
        second = RngRegistry(seed=2).stream("edge").random(10)
        assert not (first == second).all()

    def test_adding_stream_does_not_perturb_existing(self):
        """Draw order of one stream must not depend on other streams existing."""
        plain = RngRegistry(seed=3)
        values_before = plain.stream("edge").random(5)

        interleaved = RngRegistry(seed=3)
        interleaved.stream("other").random(100)
        values_after = interleaved.stream("edge").random(5)
        assert (values_before == values_after).all()

    def test_seed_property(self):
        assert RngRegistry(seed=11).seed == 11
