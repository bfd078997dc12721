"""Step-size sequence construction, validation, and decay properties."""

import dataclasses
import functools

import numpy as np
import pytest

from blockstoch import Schedule


class TestScheduleValues:
    def test_omega_starts_at_one(self):
        for schedule in (Schedule(), Schedule(0.55, 1.0)):
            assert schedule.omega(1) == 1.0

    def test_default_second_step(self):
        s = Schedule(0.6, 0.9, 1.0)
        assert s.omega(2) == pytest.approx(2.0 ** -0.6)
        assert s.alpha(2) == pytest.approx(2.0 ** -0.9)
        assert s.omega(2) == pytest.approx(0.6598, abs=1e-4)
        assert s.alpha(2) == pytest.approx(0.5359, abs=1e-4)

    def test_default_at_k_100(self):
        s = Schedule()
        assert s.omega(100) == pytest.approx(0.0631, abs=1e-4)
        assert s.alpha(100) == pytest.approx(0.0158, abs=1e-4)
        assert s.alpha(100) / s.omega(100) == pytest.approx(0.25, abs=0.002)

    def test_ratio_shrinks_by_exponent_gap(self):
        s = Schedule()
        for k in (10, 250, 4096):
            ratio = s.alpha(k) / s.omega(k)
            ratio4 = s.alpha(4 * k) / s.omega(4 * k)
            assert ratio4 / ratio == pytest.approx(4.0 ** -0.3, rel=1e-12)

    def test_alpha_scale(self):
        s = Schedule(alpha_scale=0.25)
        assert s.alpha(1) == 0.25
        assert s.alpha(16) == pytest.approx(0.25 * 16 ** -0.9)

    def test_index_must_be_positive(self):
        s = Schedule()
        with pytest.raises(ValueError):
            s.omega(0)
        with pytest.raises(ValueError):
            s.alpha(0)


class TestScheduleValidation:
    def test_ratio_must_vanish(self):
        with pytest.raises(ValueError, match="does not vanish"):
            Schedule(0.9, 0.6)
        with pytest.raises(ValueError, match="does not vanish"):
            Schedule(0.8, 0.8)

    def test_square_sum_must_converge(self):
        with pytest.raises(ValueError, match="squared"):
            Schedule(0.4, 0.9)
        with pytest.raises(ValueError, match="squared"):
            Schedule(0.6, 0.5)

    def test_sum_must_diverge(self):
        with pytest.raises(ValueError, match="converges"):
            Schedule(1.1, 1.2)

    def test_scale_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Schedule(alpha_scale=0.0)

    @pytest.mark.parametrize("scale", [np.inf, np.nan])
    def test_scale_finite(self, scale):
        with pytest.raises(ValueError, match="alpha_scale=.*finite"):
            Schedule(alpha_scale=scale)

    def test_fields_are_the_three_parameters(self):
        assert [f.name for f in dataclasses.fields(Schedule)] == [
            "omega_exponent", "alpha_exponent", "alpha_scale"]


@functools.lru_cache(maxsize=1)
def first_terms(s: Schedule, n: int = 10 ** 6) -> tuple[np.ndarray, np.ndarray]:
    """omega(1..n) and alpha(1..n) from the scalar calls the engine makes;
    the last schedule's terms are kept for the next test."""
    ks = range(1, n + 1)
    return np.fromiter(map(s.omega, ks), float, n), np.fromiter(map(s.alpha, ks), float, n)


class TestDecayProperties:
    def test_monotone_and_positive_to_1e6(self):
        for s in (Schedule(0.55, 0.99, 2.0), Schedule(0.7, 0.9, 0.1), Schedule()):
            om, al = first_terms(s)
            assert np.all(om > 0) and np.all(om <= 1.0)
            assert np.all(al > 0) and np.all(al <= s.alpha_scale)
            assert np.all(np.diff(om) <= 0)
            assert np.all(np.diff(al) < 0)
            ratio = al[1:] / om[1:]
            assert np.all(np.diff(ratio) < 0)
            assert ratio[-1] < ratio[0]

    def test_default_summability_proxies(self):
        om, _ = first_terms(Schedule())
        assert om.sum() > 100.0
        assert om[-1] ** 2 < 1e-6
