"""Tests for repro.utils.mathx."""

from hypothesis import given, strategies as st

from repro.utils.mathx import log_star, tetration


class TestLogStar:
    def test_base_cases(self):
        assert log_star(0) == 0
        assert log_star(1) == 0
        assert log_star(2) == 1

    def test_known_values(self):
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4
        assert log_star(2 ** 65536) == 5

    def test_monotone(self):
        values = [log_star(x) for x in [2, 4, 16, 256, 65536, 10 ** 9]]
        assert values == sorted(values)

    @given(st.integers(min_value=1, max_value=10 ** 12))
    def test_small_for_everything(self, x):
        assert log_star(x) <= 6


class TestTetration:
    def test_schedule_of_slack_color(self):
        # x_i = 2 ↑↑ i as used by Algorithm 15.
        assert tetration(2, 0) == 1
        assert tetration(2, 1) == 2
        assert tetration(2, 2) == 4
        assert tetration(2, 3) == 16
        assert tetration(2, 4) == 65536

    def test_cap(self):
        assert tetration(2, 6, cap=1000) == 1000

    def test_negative_height(self):
        assert tetration(2, -1) == 1
