"""Property tests for the admission-control primitives.

Two guarantees the docstrings promise, pinned over randomized inputs:

* A :class:`TokenBucket` admits at most ``rate * window + burst``
  requests over any probe window.
* A :class:`WeightedFairQueue` never starves a backlogged tenant --
  every tenant is served within a bounded number of dequeues of its
  previous service.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import TokenBucket, WeightedFairQueue

_rates = st.floats(min_value=0.1, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
_bursts = st.floats(min_value=1.0, max_value=16.0,
                    allow_nan=False, allow_infinity=False)
_probe_times = st.lists(
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


class TestTokenBucketBound:
    @given(rate=_rates, burst=_bursts, times=_probe_times)
    @settings(max_examples=50, deadline=None)
    def test_never_admits_more_than_rate_window_plus_burst(
        self, rate, burst, times
    ):
        bucket = TokenBucket(rate=rate, burst=burst)
        times = sorted(times)
        admitted = sum(bucket.admit(t) for t in times)
        # The bucket starts full at t=0, so over the window [0, max(t)]
        # it can hand out at most the initial burst plus the refill.
        bound = rate * times[-1] + burst
        assert admitted <= bound + 1e-6

    @given(rate=_rates, burst=_bursts,
           times=_probe_times, split=st.integers(min_value=1, max_value=199))
    @settings(max_examples=50, deadline=None)
    def test_bound_holds_over_any_suffix_window(
        self, rate, burst, times, split
    ):
        # Not just from t=0: any probe window [t_k, t_end] obeys the
        # same bound, because held tokens never exceed the burst.
        bucket = TokenBucket(rate=rate, burst=burst)
        times = sorted(times)
        split = min(split, len(times) - 1)
        for t in times[:split]:
            bucket.admit(t)
        suffix = times[split:]
        if not suffix:
            return
        admitted = sum(bucket.admit(t) for t in suffix)
        window = suffix[-1] - suffix[0]
        assert admitted <= rate * window + burst + 1e-6


_weight_lists = st.lists(
    st.floats(min_value=0.5, max_value=8.0,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=5,
)


class TestWeightedFairQueueNoStarvation:
    @given(weights=_weight_lists, rounds=st.integers(min_value=2, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_backlogged_tenant_service_gap_is_bounded(self, weights, rounds):
        """With every tenant permanently backlogged, the gap between
        consecutive services of any tenant stays within its fair-share
        period (sum(weights) / weight dequeues), plus slack for
        simultaneous tag ties across the other tenants."""
        wfq = WeightedFairQueue()
        names = [f"t{i}" for i in range(len(weights))]
        for name, weight in zip(names, weights):
            wfq.register(name, weight)
        total_pops = rounds * len(weights) * 4
        for name in names:
            for i in range(total_pops):
                wfq.push(name, i)
        last_seen = {name: 0 for name in names}
        total_weight = sum(weights)
        bounds = {
            name: math.ceil(total_weight / weight) + len(weights)
            for name, weight in zip(names, weights)
        }
        for step in range(1, total_pops + 1):
            name, _ = wfq.pop()
            gap = step - last_seen[name]
            last_seen[name] = step
            assert gap <= bounds[name], (
                f"tenant {name} waited {gap} dequeues "
                f"(bound {bounds[name]})"
            )

    @given(weights=_weight_lists)
    @example(weights=[7.375, 0.5, 0.5, 0.5, 0.5])
    @settings(max_examples=50, deadline=None)
    def test_service_shares_track_weights(self, weights):
        """Every prefix of the service sequence stays within the lag
        bound the finish-tag rule implies.

        All ``n`` tenants are backlogged from the start, so after
        ``k_i`` services tenant ``i`` holds the finish tag
        ``(k_i + 1) / w_i`` and :meth:`WeightedFairQueue.pop` serves the
        smallest tag.  When ``i`` was last served, its tag ``k_i / w_i``
        was at most ``j``'s tag, ``(k_j' + 1) / w_j`` with ``k_j' <=
        k_j``, so for every pair ``k_i / w_i - k_j / w_j <= 1 / w_j``.
        Multiplying by ``w_i w_j`` and summing over ``j != i`` with
        ``N = sum(k)`` dequeues and ``W = sum(w)``:

        * ``k_i W - N w_i <= (n - 1) w_i``, so
          ``served_i - expected_i <= (n - 1) w_i / W``;
        * from the pairs the other way round, ``N w_i - k_i W <= W -
          w_i``, so ``served_i - expected_i >= -(1 - w_i / W) > -1``,

        with ``expected_i = N w_i / W``.  The slack only absorbs the
        float rounding of the accumulated tags.
        """
        wfq = WeightedFairQueue()
        names = [f"t{i}" for i in range(len(weights))]
        for name, weight in zip(names, weights):
            wfq.register(name, weight)
        pops = 40 * len(weights)
        for name in names:
            for i in range(pops):
                wfq.push(name, i)
        served = {name: 0 for name in names}
        total_weight = sum(weights)
        tenants = len(weights)
        for dequeued in range(1, pops + 1):
            served[wfq.pop()[0]] += 1
            for name, weight in zip(names, weights):
                share = weight / total_weight
                lag = served[name] - dequeued * share
                assert -(1 - share) - 1e-9 <= lag <= (tenants - 1) * share + 1e-9, (
                    f"tenant {name} served {served[name]} of {dequeued} "
                    f"(weights {weights})"
                )
