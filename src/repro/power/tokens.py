"""DIMM-level power-token pool.

One token is the power to RESET one MLC cell (Section 3, Figure 5). The
pool tracks Available Power Tokens (APT): allocations by in-flight write
iterations may never exceed the DIMM budget. The pool also records APT
statistics used by the experiments.
"""

from __future__ import annotations

from typing import Iterable, List

from ..errors import BudgetExceededError, TokenError

TOKEN_EPS = 1e-9


class TokenPool:
    """A conserved pool of power tokens with floor/ceiling invariants."""

    def __init__(self, budget: float, name: str = "dimm"):
        if budget <= 0:
            raise TokenError(f"{name}: budget must be positive, got {budget}")
        self.name = name
        self.budget = float(budget)
        self.allocated = 0.0
        # Statistics.
        self.min_available = float(budget)
        self._weighted_alloc = 0.0
        self._last_time = 0
        self.peak_allocated = 0.0

    @property
    def available(self) -> float:
        """The paper's APT counter."""
        return self.budget - self.allocated

    def can_allocate(self, tokens: float) -> bool:
        return tokens <= self.available + TOKEN_EPS

    def allocate(self, tokens: float, now: int = 0) -> None:
        if tokens < -TOKEN_EPS:
            raise TokenError(f"{self.name}: negative allocation {tokens}")
        if not self.can_allocate(tokens):
            raise BudgetExceededError(
                f"{self.name}: allocating {tokens:.3f} with only "
                f"{self.available:.3f} available"
            )
        self._advance(now)
        self.allocated = min(self.budget, self.allocated + max(0.0, tokens))
        self.peak_allocated = max(self.peak_allocated, self.allocated)
        self.min_available = min(self.min_available, self.available)

    def release(self, tokens: float, now: int = 0) -> None:
        if tokens < -TOKEN_EPS:
            raise TokenError(f"{self.name}: negative release {tokens}")
        if tokens > self.allocated + TOKEN_EPS:
            raise TokenError(
                f"{self.name}: releasing {tokens:.3f} of only "
                f"{self.allocated:.3f} allocated"
            )
        self._advance(now)
        self.allocated = max(0.0, self.allocated - tokens)

    def resize(self, delta: float, now: int = 0) -> None:
        """Adjust the budget (used by xLocal-style what-if experiments)."""
        if self.budget + delta < self.allocated - TOKEN_EPS:
            raise TokenError(
                f"{self.name}: cannot shrink budget below current allocation"
            )
        self._advance(now)
        self.budget += delta

    def _advance(self, now: int) -> None:
        if now > self._last_time:
            self._weighted_alloc += self.allocated * (now - self._last_time)
            self._last_time = now

    @property
    def occupancy(self) -> float:
        """Allocated fraction of the budget, in [0, 1] (telemetry)."""
        return self.allocated / self.budget

    def mean_allocated(self, now: int) -> float:
        """Time-weighted mean allocation over [0, now]."""
        self._advance(now)
        if now <= 0:
            return self.allocated
        return self._weighted_alloc / now

    def __repr__(self) -> str:
        return (
            f"TokenPool({self.name}, budget={self.budget:.1f}, "
            f"available={self.available:.1f})"
        )


class ChipTokenLedger:
    """LCP token accounting for all chips of a DIMM, as plain float lists.

    The power manager reads ``budget`` and ``allocated`` directly in its
    per-chip acquisition loop and commits through :meth:`allocate` /
    :meth:`release_held`. Every update is exactly the scalar arithmetic
    :class:`~repro.pcm.chip.PCMChip` performs (``+= max(0, t)`` and
    ``= max(0, a - t)``), so the balances are bit-identical to a set of
    per-chip objects driven through the same sequence.
    """

    def __init__(self, budgets: Iterable[float]):
        self.budget: List[float] = [float(b) for b in budgets]
        if not self.budget or min(self.budget) <= 0:
            raise TokenError("chip ledger budgets must be positive")
        self.allocated: List[float] = [0.0] * len(self.budget)

    @property
    def n_chips(self) -> int:
        return len(self.budget)

    @property
    def free(self) -> List[float]:
        return [b - a for b, a in zip(self.budget, self.allocated)]

    def fits(self, chip: int, tokens: float) -> bool:
        """``PCMChip.can_allocate`` for one chip."""
        return tokens <= self.budget[chip] - self.allocated[chip] + TOKEN_EPS

    def allocate(self, chip: int, tokens: float) -> None:
        """Allocate ``tokens`` on ``chip``; feasibility is the caller's
        responsibility (the power manager checks before committing)."""
        self.allocated[chip] += max(0.0, tokens)

    def allocate_many(self, chips: List[int], tokens: List[float]) -> None:
        """:meth:`allocate` ``tokens[c]`` on every chip ``c`` in ``chips``
        (``t if t > 0.0 else 0.0`` is ``max(0.0, t)``, inlined)."""
        allocated = self.allocated
        for chip in chips:
            t = tokens[chip]
            allocated[chip] += t if t > 0.0 else 0.0

    def release(self, chip: int, tokens: float) -> None:
        self.allocated[chip] = max(0.0, self.allocated[chip] - tokens)

    def release_held(self, held: List[float]) -> None:
        """Release one write's per-chip holding (zero entries skipped)."""
        allocated = self.allocated
        for chip, tokens in enumerate(held):
            if tokens > TOKEN_EPS:
                left = allocated[chip] - tokens
                allocated[chip] = left if left > 0.0 else 0.0
