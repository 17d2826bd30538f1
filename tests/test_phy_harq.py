"""Unit tests for the HARQ model."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.phy.harq import (
    _BLER_OFFSET_DB,
    _BLER_SLOPE_PER_DB,
    MAX_TRANSMISSIONS,
    TARGET_BLER,
    HarqProcess,
    block_error_rate,
    delivery_probability,
    expected_attempts,
    first_attempt_failure_rate,
    harq_goodput_scale,
)
from repro.phy.mcs import LTE_CQI_TABLE


class TestBlerCurve:
    def test_anchored_at_threshold(self):
        for entry in LTE_CQI_TABLE:
            assert block_error_rate(entry.min_sinr_db, entry.cqi) == pytest.approx(
                TARGET_BLER, abs=1e-6
            )

    def test_monotone_decreasing_in_sinr(self):
        for sinr in range(-10, 25):
            assert block_error_rate(float(sinr), 7) >= block_error_rate(
                float(sinr) + 1.0, 7
            )

    def test_deep_fade_is_certain_loss(self):
        assert block_error_rate(-40.0, 7) == pytest.approx(1.0, abs=1e-6)

    def test_strong_signal_is_error_free(self):
        assert block_error_rate(60.0, 7) == pytest.approx(0.0, abs=1e-6)

    def test_cqi0_always_fails(self):
        assert block_error_rate(30.0, 0) == 1.0

    def test_higher_cqi_needs_more_sinr(self):
        sinr = 10.0
        assert block_error_rate(sinr, 12) > block_error_rate(sinr, 5)


class TestClosedForms:
    def test_delivery_probability_at_threshold_is_high(self):
        # One retransmission with chase combining nearly always recovers
        # a block transmitted at the 10% BLER point.
        for entry in LTE_CQI_TABLE:
            assert delivery_probability(entry.min_sinr_db, entry.cqi) > 0.99

    def test_expected_attempts_bounds(self):
        for sinr in (-5.0, 0.0, 10.0, 30.0):
            attempts = expected_attempts(sinr, 7)
            assert 1.0 <= attempts <= MAX_TRANSMISSIONS

    def test_expected_attempts_one_at_high_sinr(self):
        assert expected_attempts(40.0, 7) == pytest.approx(1.0, abs=1e-4)

    def test_goodput_scale_range(self):
        for sinr in (-10.0, 0.0, 5.9, 20.0):
            assert 0.0 <= harq_goodput_scale(sinr, 7) <= 1.0

    def test_goodput_scale_is_one_at_high_sinr(self):
        assert harq_goodput_scale(40.0, 7) == pytest.approx(1.0, abs=1e-4)

    def test_goodput_scale_zero_for_cqi0(self):
        assert harq_goodput_scale(10.0, 0) == 0.0

    def test_first_attempt_failure_uses_link_adaptation(self):
        # At exactly a CQI threshold link adaptation picks that CQI, so the
        # first-attempt failure rate equals the BLER target.
        assert first_attempt_failure_rate(5.9) == pytest.approx(TARGET_BLER, abs=1e-6)


class TestHarqProcess:
    def test_statistics_match_closed_form(self):
        rng = np.random.default_rng(7)
        process = HarqProcess(rng=rng)
        sinr, cqi = 5.9, 7
        n = 3000
        for _ in range(n):
            process.deliver_block(sinr, cqi)
        assert process.blocks_sent == n
        empirical_delivery = process.blocks_delivered / n
        assert empirical_delivery == pytest.approx(
            delivery_probability(sinr, cqi), abs=0.01
        )
        assert process.retransmission_fraction == pytest.approx(
            block_error_rate(sinr, cqi), abs=0.02
        )

    def test_result_flags(self):
        rng = np.random.default_rng(1)
        process = HarqProcess(rng=rng)
        result = process.deliver_block(40.0, 7)
        assert result.delivered
        assert result.transmissions == 1
        assert not result.used_retransmission

    def test_hopeless_block_exhausts_budget(self):
        rng = np.random.default_rng(1)
        process = HarqProcess(rng=rng)
        result = process.deliver_block(-40.0, 1)
        assert not result.delivered
        assert result.transmissions == MAX_TRANSMISSIONS

    def test_empty_process_fraction(self):
        assert HarqProcess(rng=np.random.default_rng(0)).retransmission_fraction == 0.0


def _bits(value):
    return struct.pack("<d", value)


class TestFusedGoodputScale:
    """``harq_goodput_scale`` shares each attempt's BLER between the two
    closed forms; it must stay their exact quotient."""

    @settings(max_examples=500, deadline=None)
    @given(
        sinr=st.floats(min_value=-450.0, max_value=450.0),
        cqi=st.integers(min_value=0, max_value=15),
    )
    @example(sinr=10.0, cqi=0)  # out of range: 0.0 / 4.0
    @example(sinr=-400.0, cqi=1)  # the zero-signal SINR floor
    @example(sinr=100.0, cqi=1)  # x > 40 from the first attempt
    @example(sinr=-60.0, cqi=15)  # x < -40 on every attempt
    @example(sinr=5.9, cqi=7)  # on the waterfall
    def test_equals_delivery_over_attempts_bitwise(self, sinr, cqi):
        expected = delivery_probability(sinr, cqi) / expected_attempts(sinr, cqi)
        assert _bits(harq_goodput_scale(sinr, cqi)) == _bits(expected)

    def test_examples_reach_both_clamp_branches(self):
        def x(sinr, cqi, attempt):
            combined = 10.0 * np.log10(10.0 ** (sinr / 10.0) * attempt)
            threshold = LTE_CQI_TABLE[cqi - 1].min_sinr_db
            return _BLER_SLOPE_PER_DB * (combined - threshold + _BLER_OFFSET_DB)

        assert x(100.0, 1, 1) > 40.0
        assert all(x(-60.0, 15, a) < -40.0 for a in range(1, MAX_TRANSMISSIONS + 1))

    def test_offset_anchors_target_bler(self):
        assert _BLER_OFFSET_DB == math.log(1.0 / TARGET_BLER - 1.0) / _BLER_SLOPE_PER_DB
