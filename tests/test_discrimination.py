import numpy as np
import pytest

from isdkit.curves import extend_linear, mean_survival
from isdkit.discrimination import (
    best_guess,
    concordance,
    count_comparable_pairs,
    default_eta,
    l1_hinge,
    l1_log,
    l1_margin,
    l1_uncensored,
    margin_weights,
)

from conftest import dataset, linear_curve, random_curve, step_curve

def brute_force_concordance(times, events, risks):
    """Direct pair enumeration, the oracle for the vectorized path."""
    n = len(times)
    pairs = 0
    score = 0.0
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and events[i]:
                pairs += 1
                if risks[i] > risks[j]:
                    score += 1.0
                elif risks[i] == risks[j]:
                    score += 0.5
            elif j > i and times[i] == times[j] and events[i] and events[j]:
                pairs += 1
                score += 0.5
    return pairs, (score / pairs if pairs else None)


class TestConcordance:
    def test_five_patient_example_scores_point_seven(self):
        d = dataset([1, 3, 4, 6, 9], [1, 1, 1, 1, 1])
        assert concordance(d, [6, 3, 5, 2, 4]) == 0.7

    def test_constant_risk_scores_exactly_half(self):
        d = dataset([1, 3, 4, 6, 9], [1, 0, 1, 1, 0])
        assert concordance(d, [2, 2, 2, 2, 2]) == 0.5

    def test_censoring_pattern_yields_six_pairs(self):
        # alternating deaths and censorings d1 < c2 < d3 < c4 < d5
        d = dataset([1, 2, 3, 4, 5], [1, 0, 1, 0, 1])
        assert count_comparable_pairs(d) == 6

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            times = rng.integers(1, 6, size=n).astype(float)
            events = rng.random(n) < 0.7
            risks = rng.integers(-3, 4, size=n).astype(float)
            pairs, oracle = brute_force_concordance(times, events, risks)
            d = dataset(times, events)
            assert count_comparable_pairs(d) == pairs
            if pairs == 0:
                with pytest.raises(ValueError):
                    concordance(d, risks)
            else:
                assert concordance(d, risks) == pytest.approx(
                    oracle, abs=1e-12
                )

    def test_invariant_under_monotone_risk_transform(self, rng):
        times = rng.uniform(1, 20, 12)
        events = rng.random(12) < 0.6
        risks = rng.standard_normal(12)
        d = dataset(times, events)
        base = concordance(d, risks)
        assert concordance(d, np.exp(risks)) == base
        assert concordance(d, 3 * risks + 7) == base

    def test_negation_complements_to_one_without_ties(self):
        d = dataset([1, 3, 4, 6, 9], [1, 1, 0, 1, 1])
        risks = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        c1 = concordance(d, risks)
        c2 = concordance(d, -risks)
        assert c1 + c2 == pytest.approx(1.0)

    def test_no_comparable_pairs_is_an_error(self):
        d = dataset([1, 2, 3], [0, 0, 0])
        with pytest.raises(ValueError, match="comparable"):
            concordance(d, [1, 2, 3])


def weights_for(v, km):
    """The margin weights of v's censored instances under the curve km."""
    return margin_weights(v.times[~v.events], km)


_KM = extend_linear(step_curve([2.0, 5.0], [0.5, 0.0]))
_ALIGNED_METRICS = {
    "concordance": concordance,
    "l1-uncensored": l1_uncensored,
    "l1-hinge": l1_hinge,
    "l1-margin": lambda v, med: l1_margin(v, med, weights_for(v, _KM)),
    "l1-log": lambda v, med: l1_log(v, med, "uncensored", eta=0.5),
}


@pytest.mark.parametrize("metric", sorted(_ALIGNED_METRICS))
@pytest.mark.parametrize("shape", [(1,), (4,), (5, 1)])
def test_predictions_must_be_one_per_instance(metric, shape):
    # a single shared value must be broadcast to every patient by the caller
    d = dataset([1, 3, 4, 6, 9], [1, 1, 1, 1, 1])
    score = _ALIGNED_METRICS[metric]
    assert np.isfinite(score(d, np.arange(1.0, 6.0)))
    with pytest.raises(ValueError, match="predictions of shape .* for 5 instances"):
        score(d, np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))


class TestL1Family:
    def test_perfect_medians_score_zero(self):
        d = dataset([3, 8], [1, 1])
        assert l1_uncensored(d, [3, 8]) == 0.0

    def test_absolute_gap_blind_to_scale(self):
        # the motivating pair: both errors are 3 time units
        d = dataset([120, 1], [1, 1])
        p = [117, 4]
        assert l1_uncensored(d, p) == 3.0

    def test_single_patient(self):
        assert l1_uncensored(dataset([10], [1]), [4]) == 6.0

    def test_uncensored_rejects_censored_rows(self):
        with pytest.raises(ValueError):
            l1_uncensored(dataset([1, 2], [1, 0]), [1, 2])

    def test_hinge_clauses(self):
        assert l1_hinge(dataset([10], [0]), [15]) == 0.0
        assert l1_hinge(dataset([20], [0]), [15]) == 5.0

    def test_hinge_rewards_overestimation(self):
        # absurdly large medians zero out every censored contribution
        d = dataset([5, 9, 14], [0, 0, 0])
        assert l1_hinge(d, [1e6, 1e6, 1e6]) == 0.0


class TestBestGuess:
    def test_at_zero_equals_the_mean(self):
        km = extend_linear(linear_curve([10.0], [0.0]))
        assert best_guess(0.0, km) == mean_survival(km)

    def test_linear_closed_form(self):
        km = extend_linear(linear_curve([10.0], [0.0]))
        # 5 + (integral of 1 - t/10 over [5, 10]) / 0.5 = 5 + 1.25 / 0.5
        assert best_guess(5.0, km) == pytest.approx(7.5, abs=1e-9)

    def test_past_the_zero_time_returns_c(self):
        km = extend_linear(linear_curve([10.0], [0.0]))
        assert best_guess(12.0, km) == 12.0

    def test_always_at_least_c(self, rng):
        for _ in range(500):
            km = extend_linear(random_curve(rng), t0_km=300.0)
            c = rng.uniform(0, 1.2 * km.zero_time[0])
            assert best_guess(c, km) >= c - 1e-12


class TestMarginWeights:
    def test_invariants_hold_on_random_curves(self, rng):
        for _ in range(30):
            km = extend_linear(random_curve(rng), t0_km=300.0)
            cs = rng.uniform(0, 1.1 * km.zero_time[0], size=8)
            w = margin_weights(cs, km)
            assert np.all((0.0 <= w.alpha) & (w.alpha <= 1.0))
            assert np.all(w.best_guess >= cs - 1e-12)

    def test_early_and_late_extremes(self):
        km = extend_linear(step_curve([2.0, 5.0], [0.5, 0.0]))
        w = margin_weights([0.0, 6.0], km)
        assert w.alpha[0] == 0.0   # S_KM(0) = 1: no information
        assert w.alpha[1] == 1.0   # past the last death: as good as observed


class TestL1Margin:
    def test_all_uncensored_equals_plain_l1(self, rng):
        km = extend_linear(step_curve([2.0, 5.0, 9.0], [0.7, 0.3, 0.0]))
        d = dataset([1, 4, 7], [1, 1, 1])
        p = [2, 3, 9]
        assert l1_margin(d, p, weights_for(d, km)) == l1_uncensored(d, p)

    def test_censored_at_zero_contributes_nothing(self):
        km = extend_linear(step_curve([2.0, 5.0], [0.5, 0.0]))
        with_zero = dataset([3, 0], [1, 0])
        without = dataset([3], [1])
        assert (l1_margin(with_zero, [4, 1], weights_for(with_zero, km))
                == l1_margin(without, [4], weights_for(without, km)))

    def test_censored_past_last_death_acts_like_a_death(self):
        km = extend_linear(step_curve([2.0, 5.0], [0.5, 0.0]))
        d = dataset([3, 6], [1, 0])  # censored after S_KM hit 0
        p = [4, 4]
        # alpha = 1 and best guess = censor time
        assert l1_margin(d, p, weights_for(d, km)) == pytest.approx((1 + 2) / 2)


class TestLogL1:
    def test_relative_error_separates_the_motivating_pair(self):
        d1 = dataset([120], [1])
        d2 = dataset([1], [1])
        small = l1_log(d1, [117], "uncensored", eta=0.5)
        large = l1_log(d2, [4], "uncensored", eta=0.5)
        assert small == pytest.approx(abs(np.log(120 / 117)), abs=1e-12)
        assert large == pytest.approx(np.log(4), abs=1e-12)
        assert large > 50 * small

    def test_eta_rule_half_minimum_positive(self):
        assert default_eta([0.0, 1.0, 4.0]) == 0.5
        assert default_eta([2.0, 8.0]) == 1.0
        with pytest.raises(ValueError):
            default_eta([0.0, 0.0])

    def test_eta_replaces_zero_without_mutating_inputs(self):
        d = dataset([0.0, 4.0], [1, 1])
        value = l1_log(d, [1.0, 4.0], "uncensored", eta=0.5)
        assert value == pytest.approx(abs(np.log(0.5)) / 2, abs=1e-12)
        assert d.times[0] == 0.0

    def test_margin_variant_runs(self):
        km = extend_linear(step_curve([2.0, 5.0], [0.5, 0.0]))
        d = dataset([3, 4], [1, 0])
        value = l1_log(d, [4, 4], "margin", eta=0.5, weights=weights_for(d, km))
        assert np.isfinite(value)
        with pytest.raises(ValueError):
            l1_log(d, [4, 4], "margin", eta=0.5)

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            l1_log(dataset([1], [1]), [1], "uncensored", eta=0.0)
