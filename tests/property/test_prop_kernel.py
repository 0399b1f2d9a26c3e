"""Property tests: the vectorized kernel is the reference kernel.

Hypothesis drives random line sizes, cell-change vectors, chip counts
and seeds through both kernels and asserts element-wise agreement —
sampling draws, iteration schedules, per-chip histograms — plus the
schedule invariants (counts within ``max_iterations``, histograms
summing to the total cell changes) and the list token ledger matching
per-chip ``PCMChip`` accounting bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import PCMConfig
from repro.kernel import ReferenceKernel, VectorizedKernel
from repro.kernel.vectorized import (
    active_cells_per_chip_iteration,
    active_cells_per_iteration,
)
from repro.pcm.chip import TOKEN_EPS, PCMChip
from repro.pcm.write_model import IterationSampler
from repro.power.tokens import ChipTokenLedger
from repro.rng import make_rng

PCM = PCMConfig()

levels_arrays = st.lists(
    st.integers(min_value=0, max_value=PCM.n_levels - 1),
    min_size=0, max_size=220,
).map(lambda xs: np.asarray(xs, dtype=np.int64))


@given(levels=levels_arrays, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_samplers_agree_elementwise(levels, seed):
    """Same seed, same levels => both kernels draw identical counts and
    leave the RNG in the same state (so downstream draws match too)."""
    counts = {}
    states = {}
    for kernel in ("reference", "vectorized"):
        rng = make_rng(seed, "prop-kernel")
        counts[kernel] = IterationSampler(PCM, kernel=kernel).sample(
            levels, rng
        )
        states[kernel] = repr(rng.bit_generator.state)
    assert np.array_equal(counts["reference"], counts["vectorized"])
    assert states["reference"] == states["vectorized"]


@given(levels=levels_arrays, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_counts_within_model_bounds(levels, seed):
    sampler = IterationSampler(PCM, kernel="vectorized")
    counts = sampler.sample(levels, make_rng(seed, "prop-bounds"))
    assert counts.shape == levels.shape
    if counts.size:
        assert counts.min() >= 1
        assert counts.max() <= sampler.max_iterations
        # Per-level ceilings, not just the global one.
        for level in np.unique(levels):
            model = PCM.level_models[int(level)]
            assert counts[levels == level].max() <= model.max_iterations


@st.composite
def plan_inputs(draw):
    n_chips = draw(st.integers(min_value=1, max_value=16))
    n_cells = draw(st.integers(min_value=0, max_value=200))
    chips = draw(
        st.lists(st.integers(0, n_chips - 1),
                 min_size=n_cells, max_size=n_cells)
    )
    counts = draw(
        st.lists(st.integers(1, PCM.max_iterations),
                 min_size=n_cells, max_size=n_cells)
    )
    return (
        np.asarray(chips, dtype=np.int64),
        np.asarray(counts, dtype=np.int64),
        n_chips,
    )


@given(plan_inputs())
@settings(max_examples=80, deadline=None)
def test_plans_agree_and_histograms_conserve_cells(inputs):
    chips, counts, n_chips = inputs
    ref_active, ref_chip = ReferenceKernel().plan(chips, counts, n_chips)
    vec_active, vec_chip = VectorizedKernel().plan(chips, counts, n_chips)
    assert np.array_equal(ref_active, vec_active)
    assert np.array_equal(ref_chip, vec_chip)
    # The per-chip histogram is a partition of the DIMM-level one ...
    assert np.array_equal(vec_chip.sum(axis=0), vec_active)
    if counts.size:
        # ... iteration 1 touches every changed cell, split by chip.
        assert vec_active[0] == counts.size
        assert np.array_equal(
            vec_chip[:, 0], np.bincount(chips, minlength=n_chips)
        )
        # active[k] counts cells with >= k+1 iterations: non-increasing.
        assert (np.diff(vec_active) <= 0).all()
        assert vec_active.size == counts.max()


@given(plan_inputs())
@settings(max_examples=60, deadline=None)
def test_module_histogram_helpers_match_plan(inputs):
    chips, counts, n_chips = inputs
    if not counts.size:
        return
    active = active_cells_per_iteration(counts, int(counts.max()))
    chip_active = active_cells_per_chip_iteration(chips, counts, n_chips)
    plan_active, plan_chip = VectorizedKernel().plan(chips, counts, n_chips)
    assert np.array_equal(active, plan_active)
    assert np.array_equal(chip_active, plan_chip)
    assert chip_active.sum() == counts.sum()


@given(
    budgets=st.lists(st.floats(1.0, 200.0, allow_nan=False),
                     min_size=1, max_size=12),
    ops=st.lists(
        st.tuples(st.integers(0, 11), st.floats(0.0, 80.0, allow_nan=False)),
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_chip_ledger_matches_pcm_chips(budgets, ops):
    """Random allocate/release sequences leave the list ledger and the
    per-chip objects with bit-identical balances and feasibility."""
    ledger = ChipTokenLedger(budgets)
    chips = [PCMChip(c, b) for c, b in enumerate(budgets)]
    n = len(budgets)
    held = [0.0] * n
    for step, (chip_id, amount) in enumerate(ops):
        chip_id %= n
        if chips[chip_id].can_allocate(amount):
            chips[chip_id].allocate(amount)
            if step % 2:
                ledger.allocate(chip_id, amount)
            else:
                held[chip_id] = amount
                ledger.allocate_many([chip_id], held)
                held[chip_id] = 0.0
        else:
            released = min(amount, chips[chip_id].allocated)
            chips[chip_id].release(released)
            # A holding never carries a sub-epsilon amount, so
            # release_held skips those; release them one chip at a time.
            if step % 2 or released <= TOKEN_EPS:
                ledger.release(chip_id, released)
            else:
                held[chip_id] = released
                ledger.release_held(held)
                held[chip_id] = 0.0
        for c, chip in enumerate(chips):
            assert ledger.allocated[c] == chip.allocated
            assert ledger.fits(c, amount) == chip.can_allocate(amount)
            assert ledger.free[c] == chip.free
