"""Tests for injection processes, spatial patterns and the traffic mix."""

import random

import pytest

from helpers import one_cycle_segments
from repro.core.api import build_network
from repro.core.collector import LatencyCollector
from repro.traffic.arrival import BernoulliInjector
from repro.traffic.generators import (BitComplementPattern, HotspotPattern,
                                      NeighbourPattern, PermutationPattern,
                                      TransposePattern, UniformPattern)
from repro.traffic.mix import TrafficMix


class TestBernoulliInjector:
    def test_rate_statistics(self):
        inj = BernoulliInjector(0.3, random.Random(0))
        fires = len(inj.arrivals_in(0, 20_000))
        assert fires == pytest.approx(6000, rel=0.05)
        assert inj.arrivals == fires

    def test_zero_and_one(self):
        for rate, train in ((0.0, []), (1.0, list(range(100)))):
            inj = BernoulliInjector(rate, random.Random(0))
            assert one_cycle_segments(inj, 100) == train
            assert inj.arrivals_in(100, 200) == [t + 100 for t in train]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            BernoulliInjector(1.5, random.Random(0))

    def test_one_arrival_model_name(self):
        """``ArrivalModel`` names the protocol wherever it is exported;
        ``repro.workloads`` spells its factory ``ResolvedArrival``."""
        import repro
        import repro.traffic
        import repro.workloads
        import repro.workloads.registry
        from repro.traffic.arrival import ArrivalModel
        for pkg in (repro, repro.traffic, repro.workloads,
                    repro.workloads.registry, repro.traffic.generators):
            assert getattr(pkg, "ArrivalModel", ArrivalModel) is ArrivalModel
        assert isinstance(BernoulliInjector(0.1, random.Random(0)),
                          repro.traffic.ArrivalModel)


class TestPatterns:
    def test_uniform_never_self_and_covers_all(self):
        pat = UniformPattern(16)
        rng = random.Random(1)
        picks = {pat.pick(5, rng) for _ in range(2000)}
        assert 5 not in picks
        assert picks == set(range(16)) - {5}

    def test_uniform_is_actually_uniform(self):
        pat = UniformPattern(8)
        rng = random.Random(2)
        counts = [0] * 8
        for _ in range(14_000):
            counts[pat.pick(0, rng)] += 1
        for d in range(1, 8):
            assert counts[d] == pytest.approx(2000, rel=0.15)

    def test_hotspot_bias(self):
        pat = HotspotPattern(16, hotspot=3, p=0.5)
        rng = random.Random(3)
        hits = sum(pat.pick(7, rng) == 3 for _ in range(4000))
        assert hits > 4000 * 0.45       # 0.5 + uniform share

    def test_hotspot_node_itself_falls_back_to_uniform(self):
        pat = HotspotPattern(16, hotspot=3, p=1.0)
        rng = random.Random(4)
        assert all(pat.pick(3, rng) != 3 for _ in range(100))

    def test_transpose_deterministic(self):
        pat = TransposePattern(16)
        rng = random.Random(5)
        # src 0b0110 -> 0b1001
        assert pat.pick(0b0110, rng) == 0b1001

    def test_transpose_requires_power_of_two(self):
        with pytest.raises(ValueError):
            TransposePattern(12)

    def test_bit_complement(self):
        pat = BitComplementPattern(16)
        rng = random.Random(6)
        assert pat.pick(0, rng) == 15
        assert pat.pick(5, rng) == 10

    def test_neighbour(self):
        pat = NeighbourPattern(8)
        rng = random.Random(7)
        assert pat.pick(7, rng) == 0

    def test_permutation_is_derangement(self):
        pat = PermutationPattern(16, seed=9)
        assert sorted(pat.mapping) == list(range(16))
        assert all(i != m for i, m in enumerate(pat.mapping))

    def test_permutation_explicit_mapping_validated(self):
        with pytest.raises(ValueError):
            PermutationPattern(4, mapping=[0, 1, 2, 3])   # fixed points
        with pytest.raises(ValueError):
            PermutationPattern(4, mapping=[1, 1, 2, 3])   # not a perm


class TestTrafficMix:
    def _run(self, kind="quarc", rate=0.05, beta=0.2, seed=11, cycles=600):
        coll = LatencyCollector()
        net, _ = build_network(kind, 16, collector=coll)
        mix = TrafficMix(net, rate, msg_len=4, beta=beta, seed=seed)
        for t in range(cycles):
            mix.generate(t)
            net.step(t)
        return mix, coll, net

    def test_generation_rate(self):
        mix, _, _ = self._run(rate=0.05, cycles=2000)
        expected = 0.05 * 16 * 2000
        assert mix.generated_total == pytest.approx(expected, rel=0.1)

    def test_beta_split(self):
        mix, _, _ = self._run(rate=0.05, beta=0.25, cycles=2000)
        frac = mix.generated_broadcasts / mix.generated_total
        assert frac == pytest.approx(0.25, abs=0.04)

    def test_same_seed_same_workload(self):
        a, _, _ = self._run(seed=42)
        b, _, _ = self._run(seed=42)
        assert a.generated_unicasts == b.generated_unicasts
        assert a.generated_broadcasts == b.generated_broadcasts

    def test_common_random_numbers_across_networks(self):
        """Same seed feeds Quarc and Spidergon identical arrivals."""
        a, _, _ = self._run(kind="quarc", seed=7)
        b, _, _ = self._run(kind="spidergon", seed=7)
        assert a.generated_unicasts == b.generated_unicasts
        assert a.generated_broadcasts == b.generated_broadcasts

    def test_collector_counts_match_mix(self):
        mix, coll, net = self._run(rate=0.03, beta=0.1, cycles=1000)
        assert coll.generated_unicast == mix.generated_unicasts
        assert coll.generated_collective == mix.generated_broadcasts

    def test_invalid_params(self):
        net, _ = build_network("quarc", 16)
        with pytest.raises(ValueError):
            TrafficMix(net, 0.1, msg_len=0)
        with pytest.raises(ValueError):
            TrafficMix(net, 0.1, msg_len=4, beta=1.5)
