"""Hybrid-ARQ model: block error rates and chase-combining retransmissions.

The paper highlights HARQ as one of the three LTE PHY features that enable
long range (Table 1, Section 3.1): "25% of packets sent from distances
larger than 500 m use hybrid ARQ".  This module provides

* a block-error-rate curve per CQI, anchored so each CQI meets its 10% BLER
  target exactly at its switching threshold;
* :class:`HarqProcess`, a per-transport-block retransmission simulator with
  chase combining (retransmissions add SINR in the linear domain);
* closed-form helpers for effective goodput used by the system simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs import runtime as _obs_runtime
from repro.phy.mcs import CQI_OUT_OF_RANGE, entry_for_cqi
from repro.utils.dbmath import db_to_linear, linear_to_db

#: LTE allows up to 3 HARQ retransmissions (4 transmissions total).
MAX_TRANSMISSIONS = 4

#: Target BLER at the CQI switching threshold (link adaptation operating point).
TARGET_BLER = 0.1

#: Logistic slope of the BLER waterfall, per dB.  Turbo-coded LTE blocks have
#: steep waterfalls; ~1.5 dB from 90% to 10% BLER.
_BLER_SLOPE_PER_DB = 1.6

#: Waterfall offset such that ``block_error_rate(threshold) == TARGET_BLER``.
_BLER_OFFSET_DB = math.log(1.0 / TARGET_BLER - 1.0) / _BLER_SLOPE_PER_DB


def block_error_rate(sinr_db: float, cqi: int) -> float:
    """BLER of one transmission at ``sinr_db`` using the MCS of ``cqi``.

    Anchored to ``TARGET_BLER`` at the CQI's switching threshold, with a
    logistic waterfall.  CQI 0 means nothing can be transmitted: BLER 1.
    """
    if cqi == CQI_OUT_OF_RANGE:
        return 1.0
    threshold = entry_for_cqi(cqi).min_sinr_db
    x = _BLER_SLOPE_PER_DB * (sinr_db - threshold - (-_BLER_OFFSET_DB))
    # Guard the exponent to avoid overflow on extreme SINRs.
    if x > 40.0:
        return 0.0
    if x < -40.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


@dataclass
class HarqResult:
    """Outcome of delivering one transport block.

    Attributes:
        delivered: whether the block was decoded within the HARQ budget.
        transmissions: number of over-the-air attempts used (1..4).
    """

    delivered: bool
    transmissions: int

    @property
    def used_retransmission(self) -> bool:
        """True when HARQ actually kicked in (more than one attempt)."""
        return self.transmissions > 1


@dataclass
class HarqProcess:
    """Simulates HARQ delivery of transport blocks with chase combining.

    Each retransmission repeats the block; the receiver combines soft
    energy, so the effective SINR after ``k`` transmissions is ``k`` times
    the per-transmission SINR (linear domain) -- the standard chase model.

    Attributes:
        rng: random stream for per-attempt error draws.
        blocks_sent: total transport blocks attempted.
        blocks_delivered: blocks decoded within the HARQ budget.
        retransmissions: total extra attempts beyond first transmissions.
    """

    rng: np.random.Generator
    blocks_sent: int = 0
    blocks_delivered: int = 0
    retransmissions: int = 0
    _attempts_histogram: list = field(default_factory=lambda: [0] * MAX_TRANSMISSIONS)

    def deliver_block(self, sinr_db: float, cqi: int) -> HarqResult:
        """Attempt delivery of one block; draws errors from ``rng``."""
        self.blocks_sent += 1
        tel = _obs_runtime.active()
        if tel is not None:
            tel.inc("harq.blocks")
        sinr_linear = db_to_linear(sinr_db)
        for attempt in range(1, MAX_TRANSMISSIONS + 1):
            combined_db = linear_to_db(sinr_linear * attempt)
            if self.rng.random() >= block_error_rate(combined_db, cqi):
                self.blocks_delivered += 1
                self.retransmissions += attempt - 1
                self._attempts_histogram[attempt - 1] += 1
                if tel is not None:
                    tel.inc("harq.retransmissions", attempt - 1)
                    tel.observe(
                        "harq.attempts", attempt, edges=(1.0, 2.0, 3.0, 4.0)
                    )
                return HarqResult(delivered=True, transmissions=attempt)
        self.retransmissions += MAX_TRANSMISSIONS - 1
        self._attempts_histogram[MAX_TRANSMISSIONS - 1] += 1
        if tel is not None:
            tel.inc("harq.retransmissions", MAX_TRANSMISSIONS - 1)
            tel.inc("harq.delivery_failures")
            tel.observe(
                "harq.attempts", MAX_TRANSMISSIONS, edges=(1.0, 2.0, 3.0, 4.0)
            )
        return HarqResult(delivered=False, transmissions=MAX_TRANSMISSIONS)

    @property
    def retransmission_fraction(self) -> float:
        """Fraction of blocks that needed at least one retransmission."""
        if self.blocks_sent == 0:
            return 0.0
        return 1.0 - self._attempts_histogram[0] / self.blocks_sent


def expected_attempts(sinr_db: float, cqi: int) -> float:
    """Expected number of transmissions per block under chase combining."""
    if cqi == CQI_OUT_OF_RANGE:
        return float(MAX_TRANSMISSIONS)
    sinr_linear = db_to_linear(sinr_db)
    expected = 0.0
    p_all_failed = 1.0
    for attempt in range(1, MAX_TRANSMISSIONS + 1):
        combined_db = linear_to_db(sinr_linear * attempt)
        p_fail = block_error_rate(combined_db, cqi)
        p_success_now = p_all_failed * (1.0 - p_fail)
        expected += attempt * p_success_now
        p_all_failed *= p_fail
    expected += MAX_TRANSMISSIONS * p_all_failed
    return expected


def delivery_probability(sinr_db: float, cqi: int) -> float:
    """Probability a block is decoded within the HARQ budget."""
    if cqi == CQI_OUT_OF_RANGE:
        return 0.0
    sinr_linear = db_to_linear(sinr_db)
    p_all_failed = 1.0
    for attempt in range(1, MAX_TRANSMISSIONS + 1):
        combined_db = linear_to_db(sinr_linear * attempt)
        p_all_failed *= block_error_rate(combined_db, cqi)
    return 1.0 - p_all_failed


def harq_goodput_scale(sinr_db: float, cqi: int) -> float:
    """Goodput multiplier capturing HARQ cost and benefit.

    Effective goodput = nominal rate x delivered fraction / mean attempts.
    This is what the system-level LTE simulator multiplies into per-CQI
    rates instead of simulating every block.

    Equal bit for bit to ``delivery_probability(sinr_db, cqi) /
    expected_attempts(sinr_db, cqi)``: each attempt's BLER is evaluated
    once (the same expression as :func:`block_error_rate`) and feeds both
    products in the same order.  Once every attempt so far has succeeded
    with certainty (``p_all_failed == 0.0``), the remaining attempts would
    only add exact zeros, so the loop stops there.
    """
    if cqi == CQI_OUT_OF_RANGE:
        return 0.0
    threshold = entry_for_cqi(cqi).min_sinr_db
    sinr_linear = db_to_linear(sinr_db)
    expected = 0.0
    p_all_failed = 1.0
    for attempt in range(1, MAX_TRANSMISSIONS + 1):
        # ``linear_to_db`` inlined; it still raises for non-positive ratios.
        ratio = sinr_linear * attempt
        combined_db = (
            10.0 * math.log10(ratio) if ratio > 0.0 else linear_to_db(ratio)
        )
        x = _BLER_SLOPE_PER_DB * (combined_db - threshold - (-_BLER_OFFSET_DB))
        if x > 40.0:
            p_fail = 0.0
        elif x < -40.0:
            p_fail = 1.0
        else:
            p_fail = 1.0 / (1.0 + math.exp(x))
        expected += attempt * (p_all_failed * (1.0 - p_fail))
        p_all_failed *= p_fail
        if p_all_failed == 0.0:
            break
    expected += MAX_TRANSMISSIONS * p_all_failed
    tel = _obs_runtime.active()
    if tel is not None:
        tel.inc("harq.evaluations")
        tel.observe(
            "harq.expected_attempts",
            expected,
            edges=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
        )
    return (1.0 - p_all_failed) / expected


def first_attempt_failure_rate(sinr_db: float, cqi: Optional[int] = None) -> float:
    """Probability the *first* transmission fails (HARQ gets used).

    If ``cqi`` is omitted, uses the CQI link adaptation would pick, which is
    how the Figure 1 drive-test experiment measures "fraction of packets
    using hybrid ARQ".
    """
    from repro.phy.mcs import cqi_from_sinr

    chosen = cqi_from_sinr(sinr_db) if cqi is None else cqi
    return block_error_rate(sinr_db, chosen)
