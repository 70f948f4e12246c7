"""Property-based tests for ``repro.workloads`` (hypothesis).

Three families of invariants, each load-bearing for backend equivalence:

* **Block contract** -- for *any* arrival model, *any* parameters and
  *any* segmentation of the horizon, ``arrivals_in`` consumed in
  one-cycle segments, in random segments and in one call must produce
  the same arrival train and leave the same internal state.  This is
  the contract that lets the mix's calendar draw a block ahead and the
  array backend fast-forward idle gaps without moving a single RNG
  draw.
* **Long-run rate** -- the ``rate`` knob means the same thing on every
  model (bursty changes variance, not mean), keeping cross-model load
  sweeps comparable.
* **Spec-string round-trip** -- ``parse_spec`` / ``format_spec`` are
  mutual inverses over everything the grammar can carry, so specs can
  be programmatically rebuilt (sweep grids, trace metadata) without
  drifting.

All properties run derandomized (fixed example corpus) so CI never sees
a fresh failing example a developer can't reproduce.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from helpers import one_cycle_segments
from repro.traffic.arrival import BernoulliInjector, ReplayInjector
from repro.workloads import (BurstyInjector, TraceInjector, format_spec,
                             parse_spec)
from repro.workloads.registry import _coerce

SETTINGS = dict(derandomize=True, deadline=None)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
rates = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
mid_rates = st.floats(min_value=0.005, max_value=0.2)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

#: A horizon segmentation: cut points drawn inside (0, horizon).
def segmentations(horizon):
    return st.lists(st.integers(min_value=1, max_value=horizon - 1),
                    max_size=8).map(
        lambda cuts: [0] + sorted(set(cuts)) + [horizon])


def bursty(rate, seed, on_frac, burst_len):
    return BurstyInjector(rate, random.Random(seed), on_frac=on_frac,
                          burst_len=burst_len)


# ----------------------------------------------------------------------
# block contract: arrivals_in is invariant under segmentation
# ----------------------------------------------------------------------
class TestBlockContract:
    HORIZON = 3000

    def _assert_contract(self, make, segments, state):
        """Three copies from ``make()`` consume the horizon in one-cycle
        segments, in ``segments`` and in one call."""
        a, b, c = make(), make(), make()
        per_cycle = one_cycle_segments(a, self.HORIZON)
        bulk = []
        for lo, hi in zip(segments, segments[1:]):
            bulk.extend(b.arrivals_in(lo, hi))
        assert per_cycle == bulk == c.arrivals_in(0, self.HORIZON)
        assert a.arrivals == b.arrivals == c.arrivals == len(bulk)
        assert state(a) == state(b) == state(c)

    @given(rate=rates, seed=seeds, segments=segmentations(3000))
    @settings(max_examples=60, **SETTINGS)
    def test_bernoulli(self, rate, seed, segments):
        self._assert_contract(
            lambda: BernoulliInjector(rate, random.Random(seed)),
            segments, lambda i: i._gap)

    @given(rate=rates, seed=seeds,
           on_frac=st.floats(min_value=0.01, max_value=0.99),
           burst_len=st.floats(min_value=1.0, max_value=40.0),
           segments=segmentations(3000))
    @settings(max_examples=60, **SETTINGS)
    def test_bursty(self, rate, seed, on_frac, burst_len, segments):
        self._assert_contract(
            lambda: bursty(rate, seed, on_frac, burst_len),
            segments, lambda i: (i._on, i._dwell))

    @given(cycles=st.lists(st.integers(min_value=0, max_value=2999),
                           unique=True).map(sorted),
           segments=segmentations(3000))
    @settings(max_examples=60, **SETTINGS)
    def test_trace(self, cycles, segments):
        self._assert_contract(lambda: TraceInjector(cycles), segments,
                              lambda i: (i._i, i._pos))
        # full horizon replays all
        assert TraceInjector(cycles).arrivals_in(0, 3000) == cycles

    @given(cycles=st.lists(st.integers(min_value=0, max_value=2999))
           .map(sorted),
           segments=segmentations(3000))
    @settings(max_examples=60, **SETTINGS)
    def test_replay_repeats_a_cycle_per_message(self, cycles, segments):
        """A v2 replay may record several messages of one node in one
        cycle: each is its own arrival, under any segmentation."""
        self._assert_contract(lambda: ReplayInjector(cycles), segments,
                              lambda i: (i._i, i._pos))
        assert ReplayInjector(cycles).arrivals_in(0, 3000) == cycles

    @given(rate=rates, seed=seeds,
           split=st.integers(min_value=1, max_value=2999))
    @settings(max_examples=40, **SETTINGS)
    def test_switching_mid_stream_is_seamless(self, rate, seed, split):
        """A caller may change block length at any point (the calendar
        drawn a cycle at a time, then a block ahead, on one mix)."""
        a = BernoulliInjector(rate, random.Random(seed))
        b = BernoulliInjector(rate, random.Random(seed))
        head = one_cycle_segments(b, split)
        tail = b.arrivals_in(split, self.HORIZON)
        assert a.arrivals_in(0, self.HORIZON) == head + tail


# ----------------------------------------------------------------------
# long-run rate
# ----------------------------------------------------------------------
class TestLongRunRate:
    @given(rate=mid_rates, seed=seeds)
    @settings(max_examples=20, **SETTINGS)
    def test_bernoulli_mean_matches_rate(self, rate, seed):
        horizon = max(40_000, int(2000 / rate))
        inj = BernoulliInjector(rate, random.Random(seed))
        got = len(inj.arrivals_in(0, horizon)) / horizon
        assert abs(got - rate) < 0.2 * rate

    @given(rate=mid_rates, seed=seeds,
           on_frac=st.floats(min_value=0.1, max_value=0.9),
           burst_len=st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=20, **SETTINGS)
    def test_bursty_mean_matches_rate(self, rate, seed, on_frac,
                                      burst_len):
        # the contract only holds while the ON-state rate stays below
        # the one-arrival-per-cycle ceiling
        inj = bursty(rate, seed, on_frac, burst_len)
        assume(inj.rate_on < 1.0)
        horizon = max(60_000, int(4000 / rate))
        got = len(inj.arrivals_in(0, horizon)) / horizon
        assert abs(got - rate) < 0.25 * rate

    @given(seed=seeds,
           on_frac=st.floats(min_value=0.05, max_value=0.95),
           burst_len=st.floats(min_value=1.0, max_value=30.0))
    @settings(max_examples=20, **SETTINGS)
    def test_zero_rate_is_silent(self, seed, on_frac, burst_len):
        inj = BurstyInjector(0.0, random.Random(seed), on_frac=on_frac,
                             burst_len=burst_len)
        assert inj.arrivals_in(0, 10_000) == []


# ----------------------------------------------------------------------
# spec-string round-trip
# ----------------------------------------------------------------------
_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-",
                 min_size=1, max_size=12)
_values = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e9, max_value=1e9),
    st.booleans(),
    _token,
)


class TestSpecRoundTrip:
    @given(name=_token,
           params=st.dictionaries(_token, _values, max_size=5))
    @settings(max_examples=120, **SETTINGS)
    def test_parse_format_parse_is_identity(self, name, params):
        assume(not any(c in name for c in ":,="))
        # the grammar coerces values on parse; only values that survive
        # their own text form can round-trip (format_spec raises on the
        # rest -- covered below)
        for v in params.values():
            assume(_coerce(str(v) if not isinstance(v, bool)
                           else ("true" if v else "false")) == v
                   or isinstance(v, float))
        try:
            spec = format_spec(name, params)
        except ValueError:
            assume(False)
        parsed_name, parsed_params = parse_spec(spec)
        assert parsed_name == name
        assert parsed_params == params
        # a second round trip is exactly stable (canonical form)
        assert format_spec(parsed_name, parsed_params) == spec

    @given(spec=st.sampled_from([
        "uniform", "hotspot:node=0,p=0.2", "hotspot:p=0.35,node=7",
        "bursty:on=0.3,len=8", "bursty:on=0.25,len=6.5",
        "permutation:seed=3", "x:flag=true,count=12",
    ]))
    @settings(max_examples=10, **SETTINGS)
    def test_round_trip_on_canonical_specs(self, spec):
        name, params = parse_spec(spec)
        again_name, again_params = parse_spec(format_spec(name, params))
        assert (again_name, again_params) == (name, params)

    def test_values_that_cannot_round_trip_are_rejected(self):
        import pytest
        with pytest.raises(ValueError, match="does not survive"):
            format_spec("trace", {"path": "1e5"})   # would come back float
        with pytest.raises(ValueError, match="grammar"):
            format_spec("x", {"k": "a,b"})          # reserved separator
        with pytest.raises(ValueError, match="grammar"):
            format_spec("bad:name")
        with pytest.raises(ValueError, match="grammar"):
            format_spec("x", {"k=v": 1})

    def test_format_spec_lowercases_like_the_parser(self):
        assert format_spec("Hotspot", {"P": 0.5}) == "hotspot:p=0.5"
