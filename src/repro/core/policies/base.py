"""Power-manager framework.

A power manager decides, for every write operation, whether the next
iteration's power demand can be satisfied, and tracks the tokens the
write holds at DIMM level, per chip, and from the global charge pump.

Acquisition is all-or-nothing across all pools: either the iteration
gets its full allocation (DIMM + every chip segment, via LCP or GCP) or
nothing is held. A write that cannot afford its next iteration *stalls
holding zero tokens* — a stalled write applies no pulses and therefore
draws no power — which makes deadlock impossible: running writes always
finish and return their tokens.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ...config.system import SystemConfig
from ...errors import SchedulingError
from ...kernel import get_kernel
from ...pcm.chip import TOKEN_EPS
from ...pcm.dimm import DIMM
from ...power.gcp import GCPGrant, GlobalChargePump
from ...power.tokens import ChipTokenLedger, TokenPool
from ..write_op import WriteOperation

#: Segment power sources.
SRC_NONE = 0
SRC_LCP = 1
SRC_GCP = 2


class Holding:
    """Tokens currently held on behalf of one write."""

    __slots__ = ("dimm", "chip", "grants", "sources")

    def __init__(self, n_chips: int):
        self.dimm = 0.0
        #: Per-chip LCP tokens held.
        self.chip: List[float] = [0.0] * n_chips
        #: chip_id -> live GCP grant for that segment.
        self.grants: Dict[int, GCPGrant] = {}
        #: Per-chip power source, fixed for the write's lifetime once
        #: chosen ("one segment uses either LCP or GCP", Section 4.1).
        self.sources: List[int] = [SRC_NONE] * n_chips

    @property
    def total(self) -> float:
        return self.dimm


class PowerManager:
    """Base class: pool construction plus atomic acquire/release."""

    #: Human-readable scheme name (set per instance by the registry).
    name = "base"

    def __init__(
        self,
        config: SystemConfig,
        dimm: DIMM,
        *,
        enforce_dimm: bool = True,
        enforce_chip: bool = False,
        ipm: bool = False,
        mr_splits: int = 1,
        gcp_enabled: bool = False,
        ooo_window: int = 1,
        pwl: bool = False,
        mr_grouping: str = "position",
    ):
        self.config = config
        self.dimm = dimm
        self.enforce_dimm = enforce_dimm
        self.enforce_chip = enforce_chip
        self.ipm = ipm
        self.mr_splits = mr_splits
        self.gcp_enabled = gcp_enabled and enforce_chip
        self.ooo_window = max(1, ooo_window)
        self.pwl = pwl
        self.mr_grouping = mr_grouping
        self.reset_set_ratio = config.pcm.reset_set_power_ratio
        #: Simulation kernel the controller plans writes with. Token
        #: arbitration is one scalar path for both kernels.
        self.kernel = get_kernel(config.kernel)

        #: The DIMM budget is *input power* (Eq. 6): LCP-delivered tokens
        #: draw 1/E_LCP each, GCP-delivered tokens 1/E_GCP each.
        self.dimm_pool = TokenPool(config.power.dimm_tokens, name="dimm")
        self.lcp_efficiency = config.power.lcp_efficiency
        self.gcp: Optional[GlobalChargePump] = None
        if self.gcp_enabled:
            self.gcp = GlobalChargePump(
                lcp_efficiency=config.power.lcp_efficiency,
                gcp_efficiency=config.power.gcp_efficiency,
                max_output_tokens=config.power.gcp_output_tokens(dimm.n_chips),
            )
        self.chip_ledger: Optional[ChipTokenLedger] = None
        if self.enforce_chip:
            self.chip_ledger = ChipTokenLedger(
                chip.budget for chip in dimm.chips
            )
        self._holdings: Dict[int, Holding] = {}
        #: Token-state epoch, bumped by every commit and every release.
        #: Whether an acquisition fits is a pure function of the pool
        #: balances, so a write that failed at the current epoch
        #: (``WriteOperation.blocked``) would fail again the same way.
        self.epoch = 0
        self._fail_key = ""
        #: Optional telemetry observer (:class:`repro.obs.Telemetry`);
        #: emits are guarded so the untraced path stays hot.
        self.obs = None
        #: Why acquisitions failed (diagnostics and tests).
        self.fail_counts: Dict[str, int] = {"dimm": 0, "chip": 0, "gcp": 0}
        # PWL intra-line wear-leveling state: line -> [writes_left, offset].
        self._pwl_state: Dict[int, List[int]] = {}
        self._pwl_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, 0x50574C])
        )

    # ------------------------------------------------------------------
    # Admission-time hooks
    # ------------------------------------------------------------------
    def line_offset(self, line_addr: int) -> int:
        """Wear-leveling rotation offset for this write (PWL strawman).

        The paper's PWL shifts each line by a random offset every 8-100
        writes (Section 2.2).
        """
        if not self.pwl:
            return 0
        state = self._pwl_state.get(line_addr)
        if state is None or state[0] <= 0:
            period = int(self._pwl_rng.integers(8, 101))
            offset = int(self._pwl_rng.integers(0, self.dimm.cells_per_line))
            state = [period, offset]
            self._pwl_state[line_addr] = state
        state[0] -= 1
        return state[1]

    # ------------------------------------------------------------------
    # Issue / advance / complete
    # ------------------------------------------------------------------
    def try_issue(self, write: WriteOperation, now: int) -> bool:
        """Attempt to start iteration 0. Applies Multi-RESET on demand:
        if the full RESET does not fit but a split one does, re-plan the
        write (Section 3.2: Multi-RESET kicks in when tokens are short).
        """
        if write.n_changed == 0:
            return True
        if self._still_blocked(write):
            return False
        if self._try_acquire(write, 0, now):
            return True
        if self.ipm and self.mr_splits > 1 and write.mr_splits == 1:
            write.apply_multi_reset(self.mr_splits, grouping=self.mr_grouping)
            if self.obs is not None:
                self.obs.on_mr_split(write, now)
            if self._try_acquire(write, 0, now):
                return True
            # Leave the MR plan in place; it can only lower the demand.
        write.blocked = (self.epoch, self._fail_key)
        return False

    def try_resume(self, write: WriteOperation, now: int) -> bool:
        """Attempt to restart a stalled/paused write at its current
        iteration.

        If the acquisition fails with the segment sources kept from
        before the stall (e.g. several segments pinned to the GCP whose
        combined demand exceeds the pump), the sources are re-decided
        from scratch — a stalled write has no pulses in flight, so
        re-routing its segments is safe and prevents livelock.
        """
        if self._still_blocked(write):
            return False
        if self._try_acquire(write, write.current_iteration, now):
            return True
        holding = self._holdings.get(write.write_id)
        if holding is not None and any(holding.sources):
            holding.sources = [SRC_NONE] * len(holding.sources)
            if self._try_acquire(write, write.current_iteration, now):
                return True
        write.blocked = (self.epoch, self._fail_key)
        return False

    def _still_blocked(self, write: WriteOperation) -> bool:
        """Charge and report a failure that still stands.

        A write that failed at the current epoch, with its re-planning
        (Multi-RESET, re-routed sources) already done, would fail again
        on the same constraint, so this charges that constraint's
        ``fail_counts`` key without planning the acquisition again.
        """
        blocked = write.blocked
        if blocked is not None and blocked[0] == self.epoch:
            self.fail_counts[blocked[1]] += 1
            return True
        return False

    def charge_blocked(
        self, writes: List[WriteOperation], times: int = 1
    ) -> None:
        """Charge each write's standing failure ``times`` more times —
        what retrying them costs while no pool balance has changed (a
        negative ``times`` takes such charges back)."""
        fail_counts = self.fail_counts
        for write in writes:
            fail_counts[write.blocked[1]] += times

    def required_rounds(self, write: WriteOperation) -> int:
        """How many sequential rounds a write must be split into so each
        round's peak demand fits the budgets at all (Section 3.2's
        multi-round write: e.g. 1024 cell changes can never fit a
        560-token DIMM budget in one round).

        Multi-RESET divides the RESET peak by ``mr_splits``, so IPM
        schemes need fewer rounds than per-write schemes.
        """
        if write.n_changed == 0:
            return 1
        rounds = 1
        groups = self.mr_splits if self.ipm else 1
        if self.enforce_dimm:
            # The DIMM budget is input power; a round's RESET demand of
            # n usable tokens draws n/E_LCP, so the usable-token cap per
            # round is budget * E_LCP (532 for Table 1's 560).
            cap = self.dimm_pool.budget * self.lcp_efficiency * groups
            rounds = max(rounds, math.ceil(write.n_changed / cap))
        if self.enforce_chip and self.dimm.chips:
            seg_cap = self.dimm.chips[0].budget
            if self.gcp is not None:
                seg_cap = max(seg_cap, self.gcp.max_output_tokens)
            max_chip = float(write.chip_counts.max())
            if max_chip > 0:
                rounds = max(rounds, math.ceil(max_chip / (seg_cap * groups)))
        return rounds

    def fits_idle(self, write: WriteOperation) -> bool:
        """Whether every iteration of ``write`` fits an idle DIMM.

        :meth:`required_rounds` sizes rounds for balanced Multi-RESET
        groups, but position grouping can load one chip's group well
        past its share; a round that does not fit the empty pools can
        never issue (or never finish), and a write burst then blocks
        reads forever. Checks the plan :meth:`try_issue` settles on —
        the Multi-RESET split when the whole RESET does not fit — with
        fresh segment routing, and re-plans nothing.
        """
        if not write.n_changed:
            return True
        # Shortcut: with C >= 1 no iteration of any plan asks more of a
        # chip than its RESET-level count or more of the DIMM than the
        # write's cell count, so if those fit every iteration does.
        ledger = self.chip_ledger
        if self.reset_set_ratio >= 1.0 and (
            ledger is None
            or max(write.chip_counts_plan()) <= min(ledger.budget) + TOKEN_EPS
        ) and (not self.enforce_dimm or (
            write.n_changed / self.lcp_efficiency
            <= self.dimm_pool.budget + TOKEN_EPS
        )):
            return True
        if not self.ipm:
            rows = [write.chip_counts_plan()]
            dimm = [float(write.n_changed)]
        else:
            ratio = self.reset_set_ratio
            iterations = range(write.total_iterations)
            rows = [write.chip_plan(i, ratio) for i in iterations]
            dimm = [write.dimm_profile(i, ratio) for i in iterations]
            if self.mr_splits > 1 and write.mr_splits == 1 \
                    and not self._fits_idle(rows[0], dimm[0]):
                totals, grid = write.multi_reset_groups(
                    self.mr_splits, self.mr_grouping
                )
                rows = grid.T.astype(np.float64).tolist() + rows[1:]
                dimm = totals.astype(np.float64).tolist() + dimm[1:]
        return all(map(self._fits_idle, rows, dimm))

    def _fits_idle(self, need: List[float], dimm_demand: float) -> bool:
        """:meth:`_try_acquire`'s checks for one iteration against empty
        pools and unrouted segments."""
        if self.chip_ledger is None:
            dimm_input = dimm_demand / self.lcp_efficiency
        else:
            local_total = 0.0
            gcp_total = 0.0
            for budget, amount in zip(self.chip_ledger.budget, need):
                if amount <= TOKEN_EPS:
                    continue
                if amount <= budget + TOKEN_EPS:
                    local_total += amount
                elif self.gcp is None:
                    return False
                else:
                    gcp_total += amount
            dimm_input = local_total / self.lcp_efficiency
            if gcp_total > 0:
                if gcp_total > self.gcp.max_output_tokens + TOKEN_EPS:
                    return False
                dimm_input += self.gcp.input_power(gcp_total)
        return not self.enforce_dimm or (
            dimm_input <= self.dimm_pool.budget + TOKEN_EPS
        )

    def on_iteration_end(self, write: WriteOperation, i: int, now: int) -> str:
        """Advance past iteration ``i``. Returns 'done', 'advance' or
        'stall'. Holdings for iteration ``i+1`` are acquired here."""
        if i + 1 >= write.total_iterations:
            self.release_all(write, now)
            return "done"
        if not self.ipm:
            # Per-write budgeting holds a constant allocation; nothing to do.
            return "advance"
        self.release_all(write, now, keep_sources=True)
        if self._try_acquire(write, i + 1, now):
            return "advance"
        return "stall"

    def release_all(
        self, write: WriteOperation, now: int, *, keep_sources: bool = False
    ) -> None:
        """Return every token the write holds (completion, stall, cancel,
        pause)."""
        holding = self._holdings.get(write.write_id)
        if holding is None:
            return
        self.epoch += 1
        if holding.dimm > TOKEN_EPS:
            self.dimm_pool.release(holding.dimm, now)
        if self.chip_ledger is not None:
            self.chip_ledger.release_held(holding.chip)
        for grant in holding.grants.values():
            assert self.gcp is not None
            self.gcp.release(grant)
        if keep_sources:
            # Reuse the Holding in place (sources survive; everything
            # released above is zeroed).
            holding.dimm = 0.0
            holding.chip = [0.0] * len(holding.chip)
            holding.grants.clear()
        else:
            del self._holdings[write.write_id]

    def holding_for(self, write: WriteOperation) -> Optional[Holding]:
        return self._holdings.get(write.write_id)

    # ------------------------------------------------------------------
    # The atomic acquisition step
    # ------------------------------------------------------------------
    def _fail(self, key: str) -> bool:
        self.fail_counts[key] += 1
        self._fail_key = key
        return False

    def _try_acquire(self, write: WriteOperation, i: int, now: int) -> bool:
        """Plan and commit iteration ``i``'s full allocation, or nothing.

        All checks (chip LCPs, GCP pump capacity, DIMM input power) run
        before anything is committed, so failure never leaves partial
        holdings behind. Chips are visited in order and every total is
        accumulated in that order, on plain floats: the write's cached
        profile row and the :class:`ChipTokenLedger` lists.
        """
        holding = self._holdings.get(write.write_id)
        ledger = self.chip_ledger
        if ledger is not None:
            need = (
                write.chip_plan(i, self.reset_set_ratio)
                if self.ipm
                else write.chip_counts_plan()
            )
            budget = ledger.budget
            allocated = ledger.allocated
            sources = holding.sources if holding is not None else None
            gcp = self.gcp
            local: List[int] = []
            pumped: List[int] = []
            local_total = 0.0
            gcp_total = 0.0
            for c, amount in enumerate(need):
                if amount <= TOKEN_EPS:
                    continue
                fits = amount <= budget[c] - allocated[c] + TOKEN_EPS
                src = SRC_NONE if sources is None else sources[c]
                if src == SRC_NONE:
                    src = SRC_LCP if fits else SRC_GCP
                if src == SRC_LCP:
                    if not fits:
                        return self._fail("chip")
                    local.append(c)
                    local_total += amount
                elif gcp is None:
                    return self._fail("chip")
                else:
                    pumped.append(c)
                    gcp_total += amount
            if gcp_total > 0 and not gcp.can_supply(gcp_total):
                return self._fail("gcp")
            dimm_input = local_total / self.lcp_efficiency
            if gcp_total > 0:
                dimm_input += gcp.input_power(gcp_total)
        else:
            demand = (
                write.dimm_profile(i, self.reset_set_ratio)
                if self.ipm
                else float(write.n_changed)
            )
            dimm_input = demand / self.lcp_efficiency

        if self.enforce_dimm and not self.dimm_pool.can_allocate(dimm_input):
            return self._fail("dimm")

        # --- commit ---
        self.epoch += 1
        if holding is None:
            holding = self._holdings[write.write_id] = Holding(
                self.dimm.n_chips
            )
        if ledger is not None:
            ledger.allocate_many(local, need)
            held = holding.chip
            sources = holding.sources
            for c in local:
                held[c] = need[c]
                sources[c] = SRC_LCP
            if pumped:
                for c in pumped:
                    holding.grants[c] = gcp.acquire(need[c])
                    sources[c] = SRC_GCP
                write.gcp_peak_tokens = max(write.gcp_peak_tokens, gcp_total)
                if self.obs is not None:
                    self.obs.on_gcp_acquire(write, gcp_total, now)
        if self.enforce_dimm and dimm_input > TOKEN_EPS:
            self.dimm_pool.allocate(dimm_input, now)
            holding.dimm = dimm_input
        return True

    # ------------------------------------------------------------------
    # Invariant checks (used by tests)
    # ------------------------------------------------------------------
    def chip_allocations(self) -> List[float]:
        """Per-chip LCP tokens currently allocated (telemetry/tests);
        treat the result as read-only."""
        if self.chip_ledger is not None:
            return self.chip_ledger.allocated
        return [0.0] * self.dimm.n_chips

    def assert_conserved(self) -> None:
        """Every pool's allocation equals the sum over live holdings."""
        dimm_sum = sum(h.dimm for h in self._holdings.values())
        if abs(dimm_sum - self.dimm_pool.allocated) > 1e-6:
            raise SchedulingError(
                f"DIMM pool leak: held {dimm_sum} vs pool {self.dimm_pool.allocated}"
            )
        allocated = self.chip_allocations()
        for chip_id in range(self.dimm.n_chips):
            chip_sum = sum(h.chip[chip_id] for h in self._holdings.values())
            if abs(chip_sum - allocated[chip_id]) > 1e-6:
                raise SchedulingError(
                    f"chip {chip_id} leak: held {chip_sum} vs "
                    f"{allocated[chip_id]}"
                )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, dimm={self.enforce_dimm}, "
            f"chip={self.enforce_chip}, ipm={self.ipm}, mr={self.mr_splits}, "
            f"gcp={self.gcp_enabled})"
        )
