import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy as scipy_xlogy

from witl.prob import (
    ConditionalPmf,
    JointPmf,
    ProbabilityError,
    SupportViolation,
    binary_entropy,
    entropy,
    joint_with_mixture,
    kl_divergence,
    marginalize,
    mix_channels,
    mutual_information,
    total_variation,
    xlogy,
)

H_01 = 0.46899559358928122  # binary entropy at 0.1
H_018 = 0.68007704572827984


def dsbs(a1=0.1):
    p11 = (1 - a1) ** 2 * 0.5 + a1**2 * 0.5
    p10 = a1 * (1 - a1)
    return JointPmf((2, 2), np.array([[p11, p10], [p10, p11]]))


class TestJointPmf:
    def test_renormalizes_tiny_drift(self):
        mass = np.array([0.5, 0.5 + 3e-10])
        p = JointPmf((2,), mass)
        assert abs(p.mass.sum() - 1.0) < 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(ProbabilityError):
            JointPmf((2,), np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ProbabilityError):
            JointPmf((2,), np.array([-0.1, 1.1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ProbabilityError):
            JointPmf((2, 3), np.full((2, 2), 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails both the sign check and the sum check, so it must be named
        with pytest.raises(ProbabilityError, match="finite"):
            JointPmf((2, 2), np.array([bad, 0.5, 0.25, 0.25]))

    def test_json_round_trip(self):
        p = dsbs()
        doc = json.dumps(p.to_json_obj())
        q = JointPmf.from_json(doc)
        assert q.alphabet_sizes == p.alphabet_sizes
        np.testing.assert_allclose(q.mass, p.mass, atol=1e-15)

    def test_from_json_malformed(self):
        with pytest.raises(ProbabilityError):
            JointPmf.from_json('{"pmf": [0.5, 0.5]}')


class TestEntropyFamily:
    def test_binary_entropy_known_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(0.1) == pytest.approx(H_01, abs=1e-14)

    def test_entropy_uniform(self):
        p = JointPmf((4,), np.full(4, 0.25))
        assert entropy(p) == pytest.approx(2.0, abs=1e-12)

    def test_entropy_dsbs(self):
        assert entropy(dsbs()) == pytest.approx(1.0 + H_018, abs=1e-12)

    def test_mutual_information_dsbs(self):
        assert mutual_information(dsbs(), [0]) == pytest.approx(1.0 - H_018, abs=1e-12)

    def test_mutual_information_independent(self):
        p = JointPmf((2, 2), np.full((2, 2), 0.25))
        assert mutual_information(p, [0]) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_binary_entropy_symmetry(self, t):
        assert binary_entropy(t) == pytest.approx(binary_entropy(1 - t), abs=1e-12)


class TestDivergences:
    def test_kl_self_is_zero(self):
        p = dsbs()
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_kl_support_violation(self):
        q = JointPmf((2,), np.array([0.5, 0.5]))
        p = JointPmf((2,), np.array([1.0, 0.0]))
        with pytest.raises(SupportViolation):
            kl_divergence(q, p)

    def test_kl_zero_in_numerator_ok(self):
        q = JointPmf((2,), np.array([1.0, 0.0]))
        p = JointPmf((2,), np.array([0.5, 0.5]))
        assert kl_divergence(q, p) == pytest.approx(1.0, abs=1e-12)

    def test_total_variation(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_kl_nonnegative(self, raw):
        q = JointPmf((4,), np.array(raw) / np.sum(raw))
        p = JointPmf((4,), np.full(4, 0.25))
        assert kl_divergence(q, p) >= -1e-12


class TestMarginalize:
    def test_marginal_values(self):
        m = marginalize(dsbs(), [0])
        np.testing.assert_allclose(m.mass, [0.5, 0.5], atol=1e-12)

    def test_marginal_order(self):
        mass = np.array([[0.1, 0.2], [0.3, 0.4]])
        p = JointPmf((2, 2), mass)
        m1 = marginalize(p, [1])
        np.testing.assert_allclose(m1.mass, [0.4, 0.6], atol=1e-12)


class TestChannels:
    def test_conditional_rows_validate(self):
        with pytest.raises(ProbabilityError):
            ConditionalPmf(2, (2,), np.array([[0.5, 0.4], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_conditional_rows_reject_non_finite(self, bad):
        with pytest.raises(ProbabilityError, match="finite"):
            ConditionalPmf(2, (2,), np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_mixture_reconstructs_dsbs(self):
        a1 = 0.1
        ch = ConditionalPmf(2, (2,), np.array([[1 - a1, a1], [a1, 1 - a1]]))
        pw = np.array([0.5, 0.5])
        mixed = mix_channels(pw, [ch, ch])
        np.testing.assert_allclose(mixed.mass, dsbs().mass, atol=1e-12)

    def test_joint_with_mixture_marginals(self):
        a1 = 0.1
        ch = ConditionalPmf(2, (2,), np.array([[1 - a1, a1], [a1, 1 - a1]]))
        pw = np.array([0.5, 0.5])
        joint = joint_with_mixture(pw, [ch, ch])
        assert joint.alphabet_sizes == (2, 2, 2)
        np.testing.assert_allclose(marginalize(joint, [0]).mass, pw, atol=1e-12)
        np.testing.assert_allclose(
            marginalize(joint, [1, 2]).mass, dsbs().mass, atol=1e-12
        )

    def test_mixture_conditional_independence(self):
        a1 = 0.1
        ch = ConditionalPmf(2, (2,), np.array([[1 - a1, a1], [a1, 1 - a1]]))
        joint = joint_with_mixture(np.array([0.5, 0.5]), [ch, ch])
        # given the mixing coordinate the others decouple
        for w in range(2):
            block = joint.mass[w] / joint.mass[w].sum()
            outer = np.outer(block.sum(axis=1), block.sum(axis=0))
            np.testing.assert_allclose(block, outer, atol=1e-12)


@pytest.mark.filterwarnings("error")
class TestXlogy:
    """prob.xlogy against scipy.special.xlogy, which the library no longer imports."""

    def test_matches_scipy_on_random_arrays(self):
        rng = np.random.default_rng(0)
        x = rng.random(2000) * 10.0 ** rng.uniform(-8, 3, 2000)
        x[rng.random(2000) < 0.1] = 0.0
        y = rng.random(2000) * 10.0 ** rng.uniform(-12, 12, 2000)
        ours, ref = xlogy(x, y), scipy_xlogy(x, y)
        assert np.all(np.abs(ours - ref) <= 4e-16 * np.abs(ref))
        assert np.array_equal(ours == 0, ref == 0)

    def test_zero_times_log_zero_is_zero(self):
        assert xlogy(0.0, 0.0) == 0.0
        np.testing.assert_array_equal(xlogy(np.zeros(3), np.array([0.0, 0.5, 2.0])), 0.0)
        assert entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(1.0, abs=1e-15)

    def test_positive_times_log_zero_is_minus_inf(self):
        assert xlogy(2.0, 0.0) == -np.inf
        np.testing.assert_array_equal(xlogy(np.array([1e-300, 3.0]), 0.0), -np.inf)

    def test_broadcasts_like_scipy(self):
        x = np.array([[0.0], [0.5], [2.0]])
        y = np.array([0.0, 0.25, 1.0, 3.0])
        ours = xlogy(x, y)
        assert ours.shape == (3, 4)
        np.testing.assert_array_equal(ours, scipy_xlogy(x, y))
        np.testing.assert_array_equal(xlogy(0.5, y), scipy_xlogy(0.5, y))
