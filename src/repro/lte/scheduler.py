"""Downlink schedulers: allocation of subchannel airtime to clients.

CellFi deliberately leaves the standard LTE scheduler untouched: "the
scheduler is free to schedule any client in any of the resource blocks made
available by the interference management system" (paper Section 4.3).  The
simulators therefore use these schedulers both for plain LTE (all
subchannels allowed) and for CellFi (allowed set from interference
management).

The schedulers operate at *epoch* granularity (the 1 s interference-
management period): an epoch is divided into mini-slots and each allowed
subchannel is assigned to one client per mini-slot.  This captures
time-sharing, finite demands and per-subchannel rate differences without
simulating every 1 ms TTI.

The proportional-fair scheduler runs one instance per AP.  Each AP's picks
depend only on its own clients, so
:meth:`ProportionalFairScheduler.allocate_many` runs every AP of a network
epoch as one batched NumPy pass over a padded (AP x client) matrix,
bit-identical to calling ``allocate`` AP by AP.  The per-AP
``_fast_allocate`` loop stays as the oracle the batch is tested against,
and as the kernel for batches too small to amortise the batch's fixed
per-step cost (see :data:`BATCH_MIN_PAIRS_PER_STEP`).
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.obs import runtime as _obs_runtime

#: Mini-slots per scheduling epoch.  50 slots x 1 s epoch = 20 ms granularity,
#: fine enough for fairness yet ~20x cheaper than per-TTI simulation.
MINISLOTS_PER_EPOCH = 50

#: Smallest number of (client, allowed subchannel) pairs per array step at
#: which :meth:`ProportionalFairScheduler.allocate_many` runs one NumPy pass.
#: The per-AP ``_fast_allocate`` loop costs about the same per pair, while
#: the pass costs ``MINISLOTS_PER_EPOCH`` x (longest grant) array steps
#: whatever the batch size; so a batch whose pairs, summed over its APs,
#: fall below this many per grant position runs the loop instead.
BATCH_MIN_PAIRS_PER_STEP = 60


@dataclass
class Allocation:
    """The outcome of scheduling one epoch.

    Attributes:
        epoch_s: epoch duration scheduled over.
        served_bits: bits delivered per client.
        time_fraction: fraction of the epoch each (client, subchannel) pair
            was scheduled -- the ``frac_j`` the bucket-update rule consumes.
    """

    epoch_s: float
    served_bits: Dict[int, float] = field(default_factory=dict)
    time_fraction: Dict[Tuple[int, int], float] = field(default_factory=dict)

    def client_throughput_bps(self, client_id: int) -> float:
        """Average throughput of ``client_id`` over the epoch."""
        return self.served_bits.get(client_id, 0.0) / self.epoch_s

    def fraction(self, client_id: int, subchannel: int) -> float:
        """Fraction of the epoch ``client_id`` was scheduled on ``subchannel``."""
        return self.time_fraction.get((client_id, subchannel), 0.0)

    def clients_on(self, subchannel: int) -> List[int]:
        """Clients that received any airtime on ``subchannel``."""
        return [
            client
            for (client, sub), frac in self.time_fraction.items()
            if sub == subchannel and frac > 0.0
        ]


#: Rate function signature: (client_id, subchannel) -> achievable bps when
#: scheduled full-time on that subchannel.
RateFn = Callable[[int, int], float]


class Scheduler(ABC):
    """Interface: divide subchannel airtime among clients for one epoch."""

    @abstractmethod
    def allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float = 1.0,
    ) -> Allocation:
        """Produce an allocation for one epoch.

        Args:
            allowed_subchannels: subchannels this AP may use (from the
                interference manager; plain LTE passes all of them).
            demands_bits: per-client backlog for this epoch;
                ``float('inf')`` for saturated clients.
            rate_fn: achievable full-time rate per (client, subchannel).
            epoch_s: epoch duration in seconds.
        """

    def _slot_allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float,
        pick: Callable[[int, Dict[int, float], Dict[int, float]], int],
    ) -> Allocation:
        """Shared mini-slot engine.

        ``pick(subchannel, remaining_demand, served_so_far)`` returns the
        client to serve, or -1 for none.
        """
        tel = _obs_runtime.active()
        span = (
            tel.span(
                "scheduler.allocate",
                cat="scheduler",
                args={
                    "clients": len(demands_bits),
                    "subchannels": len(allowed_subchannels),
                },
            )
            if tel is not None
            else None
        )
        if span is not None:
            span.__enter__()
        allocation = Allocation(epoch_s=epoch_s)
        remaining = dict(demands_bits)
        served: Dict[int, float] = {c: 0.0 for c in demands_bits}
        slot_s = epoch_s / MINISLOTS_PER_EPOCH
        for _ in range(MINISLOTS_PER_EPOCH):
            for sub in allowed_subchannels:
                client = pick(sub, remaining, served)
                if client < 0:
                    continue
                bits = min(rate_fn(client, sub) * slot_s, remaining[client])
                if bits <= 0.0:
                    continue
                remaining[client] -= bits
                served[client] += bits
                key = (client, sub)
                allocation.time_fraction[key] = (
                    allocation.time_fraction.get(key, 0.0) + 1.0 / MINISLOTS_PER_EPOCH
                )
        allocation.served_bits = served
        if span is not None:
            span.__exit__(None, None, None)
            tel.inc("scheduler.allocations")
            tel.inc("scheduler.served_bits", sum(served.values()))
            tel.inc(
                "scheduler.clients_served",
                sum(1 for bits in served.values() if bits > 0.0),
            )
        return allocation


class RoundRobinScheduler(Scheduler):
    """Cycle through backlogged clients on every subchannel.

    Deterministic and fair in airtime; used as the simple baseline and in
    unit tests where predictability matters.
    """

    def __init__(self) -> None:
        self._cursor: Dict[int, int] = {}

    def state_dict(self) -> Dict[str, object]:
        """Per-subchannel cursor positions (the only cross-epoch state)."""
        return {"cursor": dict(self._cursor)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._cursor = dict(state["cursor"])

    def allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float = 1.0,
    ) -> Allocation:
        client_order = sorted(demands_bits)

        def pick(sub: int, remaining: Dict[int, float], served: Dict[int, float]) -> int:
            eligible = [
                c for c in client_order if remaining[c] > 0.0 and rate_fn(c, sub) > 0.0
            ]
            if not eligible:
                return -1
            cursor = self._cursor.get(sub, 0)
            client = eligible[cursor % len(eligible)]
            self._cursor[sub] = cursor + 1
            return client

        return self._slot_allocate(
            allowed_subchannels, demands_bits, rate_fn, epoch_s, pick
        )


class ProportionalFairScheduler(Scheduler):
    """Classic proportional fairness: maximise ``rate / smoothed average``.

    The exponential average persists across epochs, so long-lived rate
    disparities even out over time exactly as in a real eNodeB.
    """

    def __init__(self, smoothing: float = 0.05, floor_bps: float = 1e3) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0,1], got {smoothing!r}")
        self.smoothing = smoothing
        self.floor_bps = floor_bps
        self._average_bps: Dict[int, float] = {}

    def state_dict(self) -> Dict[str, object]:
        """Smoothed per-client averages (the fairness memory)."""
        return {"average_bps": dict(self._average_bps)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._average_bps = dict(state["average_bps"])

    def allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float = 1.0,
    ) -> Allocation:
        self._seed_averages(demands_bits)
        allocation = self._fast_allocate(
            allowed_subchannels, demands_bits, rate_fn, epoch_s
        )
        self._update_averages(demands_bits, allocation, epoch_s)
        return allocation

    @staticmethod
    def allocate_many(
        schedulers: Sequence["ProportionalFairScheduler"],
        requests: Sequence[Tuple[Sequence[int], Dict[int, float], RateFn, float]],
    ) -> List[Allocation]:
        """:meth:`allocate` for many independent schedulers (one per AP).

        ``requests[i]`` holds the ``(allowed_subchannels, demands_bits,
        rate_fn, epoch_s)`` arguments for ``schedulers[i]``.  Returns the
        allocations in request order; every allocation, smoothed average
        and ``scheduler.*`` counter is bit-identical to calling
        :meth:`allocate` on each scheduler in turn.  A batch with at least
        :data:`BATCH_MIN_PAIRS_PER_STEP` (client, subchannel) pairs per
        position of its longest grant runs as one NumPy pass
        (:func:`_allocate_batch`); a smaller one runs the per-AP
        ``_fast_allocate`` loop.
        """
        for scheduler, request in zip(schedulers, requests):
            scheduler._seed_averages(request[1])
        pairs = sum(len(subs) * len(demands) for subs, demands, _, _ in requests)
        steps = max((len(subs) for subs, _, _, _ in requests), default=0)
        if pairs < BATCH_MIN_PAIRS_PER_STEP * max(steps, 1):
            allocations = [
                scheduler._fast_allocate(*request)
                for scheduler, request in zip(schedulers, requests)
            ]
        else:
            allocations = _allocate_batch(schedulers, requests, pairs)
        for scheduler, request, allocation in zip(schedulers, requests, allocations):
            scheduler._update_averages(request[1], allocation, request[3])
        return allocations

    def _seed_averages(self, demands_bits: Dict[int, float]) -> None:
        for client in demands_bits:
            self._average_bps.setdefault(client, self.floor_bps)

    def _update_averages(
        self, demands_bits: Dict[int, float], allocation: Allocation, epoch_s: float
    ) -> None:
        """Update the smoothed averages from realised epoch throughput."""
        for client in demands_bits:
            realised = allocation.served_bits.get(client, 0.0) / epoch_s
            self._average_bps[client] = (
                (1.0 - self.smoothing) * self._average_bps[client]
                + self.smoothing * max(realised, self.floor_bps)
            )

    def _fast_allocate(
        self,
        allowed_subchannels: Sequence[int],
        demands_bits: Dict[int, float],
        rate_fn: RateFn,
        epoch_s: float,
    ) -> Allocation:
        """Inlined mini-slot engine for the PF pick rule, one AP at a time.

        This is the oracle the batched :func:`_allocate_batch` pass is
        tested against (``tests/test_lte_scheduler.py``), and the kernel
        :meth:`allocate` and small :meth:`allocate_many` batches run.  The
        generic :meth:`Scheduler._slot_allocate` + pick-closure pair is
        specialised here: ``rate_fn`` is constant within an epoch and is
        prefetched once per (subchannel, client), and the per-pick history
        term is hoisted out of the slot loop.  Every floating-point
        expression, iteration order and tie-break below replicates the
        classic pick closure running inside ``_slot_allocate`` exactly --
        ``tests/test_lte_scheduler.py`` pins the bit-identity against a
        reference copy of that closure.
        """
        tel = _obs_runtime.active()
        span = (
            tel.span(
                "scheduler.allocate",
                cat="scheduler",
                args={
                    "clients": len(demands_bits),
                    "subchannels": len(allowed_subchannels),
                },
            )
            if tel is not None
            else None
        )
        if span is not None:
            span.__enter__()
        allocation = Allocation(epoch_s=epoch_s)
        remaining = dict(demands_bits)
        served: Dict[int, float] = {c: 0.0 for c in demands_bits}
        slot_s = epoch_s / MINISLOTS_PER_EPOCH
        slot_fraction = 1.0 / MINISLOTS_PER_EPOCH
        floor_denom = self.floor_bps * epoch_s / 100.0
        # Denominator mixes historical average with bits already served
        # *this epoch*, so fairness acts within the epoch too (otherwise
        # one client would win every mini-slot).
        averages = self._average_bps
        history = {
            client: self.smoothing * averages[client] * epoch_s
            for client in remaining
        }
        # Backends that precompute per-client rate rows expose them as an
        # attribute on the closure; prefetching from the table skips one
        # function call per (subchannel, client) pair.  The table holds
        # the exact floats ``rate_fn`` would return, so the allocation is
        # unchanged.
        rate_rows = getattr(rate_fn, "rate_rows", None)
        per_sub = []
        if rate_rows is None:
            for sub in allowed_subchannels:
                pairs = []
                for client in remaining:
                    rate = rate_fn(client, sub)
                    if rate > 0.0:
                        pairs.append((client, rate))
                per_sub.append((sub, pairs))
        else:
            client_rows = [(c, rate_rows[c]) for c in remaining]
            for sub in allowed_subchannels:
                pairs = []
                for client, row in client_rows:
                    rate = row[sub]
                    if rate > 0.0:
                        pairs.append((client, rate))
                per_sub.append((sub, pairs))
        time_fraction = allocation.time_fraction
        # A mini-slot that allocates nothing leaves (served, remaining)
        # untouched, so every later slot would be the same no-op: the
        # remaining slots are skipped wholesale.  This triggers once all
        # demand is exhausted (or only zero-rate backlog is left), so
        # finite-demand epochs stop paying for empty slots while the
        # produced allocation stays identical.
        n_live = sum(1 for left in remaining.values() if left > 0.0)
        progressed = True
        for _ in range(MINISLOTS_PER_EPOCH):
            if n_live == 0 or not progressed:
                break
            progressed = False
            for sub, pairs in per_sub:
                best_client = -1
                best_rate = 0.0
                best_metric = 0.0
                for client, rate in pairs:
                    if remaining[client] <= 0.0:
                        continue
                    denom = served[client] + history[client]
                    if denom < floor_denom:
                        denom = floor_denom
                    metric = rate / denom
                    if metric > best_metric:
                        best_metric = metric
                        best_client = client
                        best_rate = rate
                if best_client < 0:
                    continue
                left = remaining[best_client]
                bits = best_rate * slot_s
                if bits > left:
                    bits = left
                if bits <= 0.0:
                    continue
                left -= bits
                remaining[best_client] = left
                if left <= 0.0:
                    n_live -= 1
                progressed = True
                served[best_client] += bits
                key = (best_client, sub)
                got = time_fraction.get(key)
                time_fraction[key] = (
                    slot_fraction if got is None else got + slot_fraction
                )
                if n_live == 0:
                    break
        allocation.served_bits = served
        if span is not None:
            span.__exit__(None, None, None)
            tel.inc("scheduler.allocations")
            tel.inc("scheduler.served_bits", sum(served.values()))
            tel.inc(
                "scheduler.clients_served",
                sum(1 for bits in served.values() if bits > 0.0),
            )
        return allocation


def _allocate_batch(
    schedulers: Sequence[ProportionalFairScheduler],
    requests: Sequence[Tuple[Sequence[int], Dict[int, float], RateFn, float]],
    pairs: int,
) -> List[Allocation]:
    """``_fast_allocate`` for every request at once, as NumPy passes.

    Row ``a`` of each (AP x client) matrix is request ``a``'s clients in
    demand order, padded with never-live columns; step ``(slot, k)`` runs
    every AP's pick on its ``k``-th allowed subchannel.  Each pick applies
    the same IEEE-754 operations as the per-AP loop:

    * exhausted clients (``remaining <= 0``) and zero rates are masked to a
      rate of exactly ``0.0``, so their metric ``0.0`` never beats the
      strict ``metric > 0.0`` test;
    * the denominator floor is ``np.maximum``, the ``bits > left`` clamp
      ``np.minimum``, and ``argmax`` returns the first maximum -- the
      strict ``>`` first-max of the loop;
    * a client's ``served`` sum grows in the AP's subchannel order.

    An AP whose own loop would stop early (nothing live, or a mini-slot
    without progress) only takes no-op steps here, and the slot loop ends
    once a whole mini-slot makes no progress anywhere.  Picks are logged
    per step; the airtime fractions are looked up in a table of repeated
    ``+ 1 / MINISLOTS_PER_EPOCH`` sums by pick count and inserted in
    first-pick order, as the loop inserts them.
    """
    tel = _obs_runtime.active()
    span = (
        tel.span(
            "scheduler.allocate_many",
            cat="scheduler",
            args={"schedulers": len(requests), "pairs": pairs},
        )
        if tel is not None
        else None
    )
    if span is not None:
        span.__enter__()
    n = len(requests)
    client_ids = [list(demands) for _, demands, _, _ in requests]
    sub_ids = [list(subs) for subs, _, _, _ in requests]
    width = max((len(ids) for ids in client_ids), default=0)
    depth = max((len(subs) for subs in sub_ids), default=0)
    rates = np.zeros((depth, n, width))
    remaining = np.zeros((n, width))
    history = np.zeros((n, width))
    floor = np.ones((n, 1))  # padding rows keep a nonzero denominator
    slot_s = np.zeros(n)
    for a, (scheduler, (subs, demands, rate_fn, epoch_s)) in enumerate(
        zip(schedulers, requests)
    ):
        ids = client_ids[a]
        if not ids or not subs:
            continue
        rate_rows = getattr(rate_fn, "rate_rows", None)
        if rate_rows is None:
            table = np.array(
                [[rate_fn(client, sub) for sub in subs] for client in ids],
                dtype=float,
            )
        else:
            table = np.array([rate_rows[client] for client in ids], dtype=float)[
                :, list(subs)
            ]
        rates[: len(subs), a, : len(ids)] = table.T
        remaining[a, : len(ids)] = [demands[client] for client in ids]
        averages = scheduler._average_bps
        smoothing = scheduler.smoothing
        history[a, : len(ids)] = [
            smoothing * averages[client] * epoch_s for client in ids
        ]
        floor[a, 0] = scheduler.floor_bps * epoch_s / 100.0
        slot_s[a] = epoch_s / MINISLOTS_PER_EPOCH
    # ``_fast_allocate`` only considers pairs with ``rate > 0.0``.
    rates = np.where(rates > 0.0, rates, 0.0)
    served = np.zeros((n, width))
    denom = np.maximum(served + history, floor)
    # Flat views: one pick per AP and step, addressed as ``a * width + c``.
    flat_remaining = remaining.reshape(-1)
    flat_served = served.reshape(-1)
    flat_denom = denom.reshape(-1)
    flat_history = history.reshape(-1)
    floor = floor[:, 0]
    offsets = np.arange(n) * width
    # Only a finite positive demand can run out; saturated batches never
    # need their live mask recomputed.
    may_exhaust = bool(np.any((remaining > 0.0) & (remaining < math.inf)))
    live = remaining > 0.0
    live_rates = np.where(live, rates, 0.0)
    slot_bits = live_rates * slot_s[:, None]
    chosen = np.zeros((MINISLOTS_PER_EPOCH, depth, n), dtype=np.intp)
    granted = np.zeros((MINISLOTS_PER_EPOCH, depth, n))
    n_slots = 0
    while n_slots < MINISLOTS_PER_EPOCH and live.any():
        slot = n_slots
        n_slots += 1
        progressed = False
        for k in range(depth):
            metric = live_rates[k] / denom
            best = metric.argmax(axis=1)
            index = best + offsets
            left = flat_remaining.take(index)
            bits = np.minimum(slot_bits[k].reshape(-1).take(index), left)
            # A pick needs ``metric > 0.0``; metrics are never negative, so
            # the sign is an exact 1.0 / 0.0 mask.
            bits *= np.sign(metric.reshape(-1).take(index))
            if not np.count_nonzero(bits):
                continue
            progressed = True
            # APs that pick nobody add and subtract an exact 0.0: a no-op.
            left -= bits
            flat_remaining[index] = left
            total = flat_served.take(index)
            total += bits
            flat_served[index] = total
            total += flat_history.take(index)
            flat_denom[index] = np.maximum(total, floor)
            chosen[slot, k] = best
            granted[slot, k] = bits
            if may_exhaust and np.any(left[bits > 0.0] <= 0.0):
                live = remaining > 0.0
                live_rates = np.where(live, rates, 0.0)
                slot_bits = live_rates * slot_s[:, None]
        if not progressed:
            break
    # Every pick as (slot, position, AP), in step order.  A key names an
    # (AP, subchannel, client) triple through the subchannel's first
    # position in the AP's grant, so a subchannel listed twice in a grant
    # pools its picks into one key, as the per-AP dict does.
    slots, positions, ap_rows = np.nonzero(granted[:n_slots] > 0.0)
    canonical = np.zeros((n, depth), dtype=np.intp)
    for a, subs in enumerate(sub_ids):
        first_position: Dict[int, int] = {}
        canonical[a, : len(subs)] = [
            first_position.setdefault(sub, k) for k, sub in enumerate(subs)
        ]
    keys = (ap_rows * depth + canonical[ap_rows, positions]) * width + chosen[
        slots, positions, ap_rows
    ]
    counts = np.bincount(keys, minlength=n * depth * width)
    first_step = np.full(len(counts), n_slots * depth)
    np.minimum.at(first_step, keys, slots * depth + positions)
    # Grouped by AP, each AP's keys in first-pick order: the order
    # ``_fast_allocate`` inserts them into ``time_fraction``.
    picked = np.flatnonzero(counts)
    picked = picked[np.lexsort((first_step[picked], picked // (depth * width)))]
    pick_aps = (picked // (depth * width)).tolist()
    pair_keys = [
        (client_ids[a][c], sub_ids[a][k])
        for a, k, c in zip(
            pick_aps,
            (picked // width % depth).tolist(),
            (picked % width).tolist(),
        )
    ]
    # ``fraction_of[count]`` repeats ``+ 1 / MINISLOTS_PER_EPOCH`` ``count``
    # times, the float ``_fast_allocate`` accumulates (its first pick
    # stores ``1 / MINISLOTS_PER_EPOCH``, equal to ``0.0`` plus it).
    fraction_of = list(
        itertools.accumulate(
            [1.0 / MINISLOTS_PER_EPOCH] * int(counts.max(initial=0)),
            initial=0.0,
        )
    )
    pair_fractions = [fraction_of[count] for count in counts[picked].tolist()]
    bounds = np.searchsorted(pick_aps, np.arange(n + 1)).tolist()
    served_rows = served.tolist()
    allocations = [
        Allocation(
            epoch_s=requests[a][3],
            served_bits=dict(zip(client_ids[a], served_rows[a])),
            time_fraction=dict(
                zip(
                    pair_keys[bounds[a] : bounds[a + 1]],
                    pair_fractions[bounds[a] : bounds[a + 1]],
                )
            ),
        )
        for a in range(n)
    ]
    if span is not None:
        span.__exit__(None, None, None)
        for allocation in allocations:
            served_bits = allocation.served_bits
            tel.inc("scheduler.allocations")
            tel.inc("scheduler.served_bits", sum(served_bits.values()))
            tel.inc(
                "scheduler.clients_served",
                sum(1 for bits in served_bits.values() if bits > 0.0),
            )
    return allocations

