"""Property tests: power managers conserve tokens under random
write/iteration schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.base import PowerManager
from repro.core.write_op import WriteOperation
from repro.pcm.chip import TOKEN_EPS
from repro.pcm.dimm import DIMM

from ..conftest import make_tiny_config


@st.composite
def write_batches(draw):
    """A batch of writes with random cell sets and iteration counts."""
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 120))
        idx = np.array(sorted(draw(st.sets(
            st.integers(0, 1023), min_size=n, max_size=n,
        ))))
        counts = np.array(draw(st.lists(
            st.integers(1, 8), min_size=idx.size, max_size=idx.size,
        )))
        batch.append((idx, counts))
    return batch


def build_manager(flags):
    config = make_tiny_config()
    dimm = DIMM(config)
    manager = PowerManager(config, dimm, **flags)
    return config, dimm, manager


MANAGER_FLAGS = st.sampled_from([
    dict(enforce_dimm=True, enforce_chip=False, ipm=False),
    dict(enforce_dimm=True, enforce_chip=True, ipm=False),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True, mr_splits=3),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True, gcp_enabled=True),
    dict(enforce_dimm=True, enforce_chip=True, ipm=True, mr_splits=3,
         gcp_enabled=True, mr_grouping="changed"),
])


class TestManagerConservation:
    @given(batch=write_batches(), flags=MANAGER_FLAGS)
    @settings(max_examples=50, deadline=None)
    def test_random_schedule_conserves_everything(self, batch, flags):
        """Drive writes to completion in round-robin; at every step the
        pools' allocations must equal the sum of live holdings, and at
        the end everything must be free again."""
        config, dimm, manager = build_manager(flags)
        writes = [
            WriteOperation(i, 0, 0, idx, counts, dimm.mapping)
            for i, (idx, counts) in enumerate(batch)
        ]
        live = []
        for write in writes:
            if manager.required_rounds(write) > 1:
                continue  # round splitting is the scheduler's job
            if manager.try_issue(write, 0):
                live.append(write)
        manager.assert_conserved()

        t = 1
        guard = 0
        while live and guard < 10_000:
            guard += 1
            still = []
            for write in live:
                if write.state.value == "stalled":
                    if not manager.try_resume(write, t):
                        still.append(write)
                        continue
                    write.state = type(write.state).ACTIVE
                outcome = manager.on_iteration_end(
                    write, write.current_iteration, t
                )
                t += 1
                if outcome == "advance":
                    write.current_iteration += 1
                    still.append(write)
                elif outcome == "stall":
                    write.current_iteration += 1
                    write.state = type(write.state).STALLED
                    still.append(write)
                manager.assert_conserved()
            # Progress guarantee: at least one write must advance per
            # sweep once every running write has stalled (tokens free).
            live = still
        assert guard < 10_000, "schedule did not converge"
        assert manager.dimm_pool.allocated == pytest.approx(0.0, abs=1e-6)
        for allocated in manager.chip_allocations():
            assert allocated == pytest.approx(0.0, abs=1e-6)
        if manager.gcp is not None:
            assert manager.gcp.output_in_use == pytest.approx(0.0, abs=1e-6)

    @given(batch=write_batches(), flags=MANAGER_FLAGS)
    @settings(max_examples=30, deadline=None)
    def test_release_all_always_safe(self, batch, flags):
        """Abandoning writes at arbitrary points never corrupts pools."""
        config, dimm, manager = build_manager(flags)
        for i, (idx, counts) in enumerate(batch):
            write = WriteOperation(i, 0, 0, idx, counts, dimm.mapping)
            if manager.required_rounds(write) > 1:
                continue
            if manager.try_issue(write, 0):
                if i % 2:
                    manager.on_iteration_end(write, 0, 1)
                manager.release_all(write, 2)
        manager.assert_conserved()
        assert manager.dimm_pool.allocated == pytest.approx(0.0, abs=1e-6)
