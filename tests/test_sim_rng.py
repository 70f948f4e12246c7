"""Tests for deterministic named RNG streams."""

from repro.sim.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        s = derive_seed(123456789, "node0.arrivals")
        assert 0 <= s < 2 ** 64

    def test_pinned_values(self):
        """The 8-byte BLAKE2b of ``"{seed}:{name}"``, little-endian:
        every recorded result and golden rests on these."""
        assert derive_seed(1, "node0.arrivals") == 1553448213601709326
        assert derive_seed(1, "replicate:3") == 14618101591781365019
        assert derive_seed(7, "fault:0:links") == 17961812049310100214
        assert (RngStreams(42).spawn("shard2").seed
                == derive_seed(42, "spawn:shard2") == 7597624540822294444)


class TestRngStreams:
    def test_same_name_returns_cached_stream(self):
        streams = RngStreams(7)
        assert streams.get("x") is streams.get("x")

    def test_streams_reproducible_across_factories(self):
        a = RngStreams(7).get("node3.dst")
        b = RngStreams(7).get("node3.dst")
        assert [a.random() for _ in range(20)] == [
            b.random() for _ in range(20)]

    def test_different_names_give_different_sequences(self):
        streams = RngStreams(7)
        a = streams.get("node0")
        b = streams.get("node1")
        assert [a.random() for _ in range(10)] != [
            b.random() for _ in range(10)]

    def test_different_seeds_give_different_sequences(self):
        a = RngStreams(1).get("x")
        b = RngStreams(2).get("x")
        assert [a.random() for _ in range(10)] != [
            b.random() for _ in range(10)]

    def test_spawn_independent_of_parent(self):
        parent = RngStreams(7)
        child = parent.spawn("replica")
        p = parent.get("x")
        c = child.get("x")
        assert [p.random() for _ in range(10)] != [
            c.random() for _ in range(10)]

    def test_spawn_reproducible(self):
        a = RngStreams(7).spawn("r").get("x").random()
        b = RngStreams(7).spawn("r").get("x").random()
        assert a == b

    def test_contains_and_len(self):
        streams = RngStreams(0)
        assert "x" not in streams
        streams.get("x")
        streams.get("y")
        assert "x" in streams
        assert len(streams) == 2
