"""Trace generation: calibration, caching, prewarm."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.config.system import CPUConfig
from repro.rng import make_rng
from repro.trace.generator import clear_trace_cache, generate_trace
from repro.trace.records import READ, WRITE
from repro.trace.synthetic.data import LINE_KINDS, make_line_pair

from ..conftest import make_tiny_config


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def tiny_trace(workload="mcf_m", **kwargs):
    config = make_tiny_config()
    kwargs.setdefault("n_pcm_writes", 60)
    kwargs.setdefault("max_refs_per_core", 15_000)
    return generate_trace(config, workload, **kwargs)


class TestGeneration:
    def test_structure_valid(self):
        trace = tiny_trace()
        trace.validate()
        assert trace.n_cores == 2

    def test_reaches_write_target(self):
        trace = tiny_trace()
        assert trace.stats.writes >= 50

    def test_writes_have_device_data(self):
        trace = tiny_trace()
        for stream in trace.per_core:
            for acc in stream:
                if acc.kind == WRITE:
                    assert acc.changed_idx is not None
                    assert acc.iter_counts is not None
                    assert acc.iter_counts.size == acc.changed_idx.size
                    if acc.iter_counts.size:
                        assert acc.iter_counts.min() >= 1

    def test_line_alignment(self):
        trace = tiny_trace()
        for stream in trace.per_core:
            for acc in stream:
                assert acc.line_addr % 256 == 0

    def test_reads_and_writes_present(self):
        trace = tiny_trace()
        kinds = {
            acc.kind for stream in trace.per_core for acc in stream
        }
        assert kinds == {READ, WRITE}

    def test_deterministic_for_seed(self):
        a = tiny_trace(use_cache=False)
        b = tiny_trace(use_cache=False)
        assert a.stats.instructions == b.stats.instructions
        assert a.stats.reads == b.stats.reads
        first_a = a.per_core[0][0]
        first_b = b.per_core[0][0]
        assert first_a.line_addr == first_b.line_addr

    def test_seed_changes_trace(self):
        a = tiny_trace(seed=1, use_cache=False)
        b = tiny_trace(seed=2, use_cache=False)
        assert a.stats.instructions != b.stats.instructions

    def test_cache_returns_same_object(self):
        a = tiny_trace()
        b = tiny_trace()
        assert a is b

    def test_cache_key_includes_workload(self):
        a = tiny_trace("mcf_m")
        b = tiny_trace("tig_m")
        assert a is not b


class TestCalibration:
    def test_wpki_tracks_table_ratio(self):
        """W/R at the PCM level should land near the Table 2 ratio."""
        trace = tiny_trace("mcf_m", n_pcm_writes=120, max_refs_per_core=30_000)
        ratio = trace.stats.writes / max(1, trace.stats.reads)
        assert 0.2 < ratio < 0.9  # table: 2.29/4.74 = 0.48

    def test_read_dominated_workload(self):
        trace = tiny_trace("tig_m", n_pcm_writes=120, max_refs_per_core=30_000)
        assert trace.stats.reads > 2 * trace.stats.writes

    def test_prewarm_disabled_changes_behaviour(self):
        warm = tiny_trace(use_cache=False, prewarm=True)
        cold = tiny_trace(use_cache=False, prewarm=False)
        # Without prewarm, the tiny window produces far fewer writes.
        assert cold.stats.writes <= warm.stats.writes


class TestCellChangeContent:
    def test_changed_idx_within_line(self):
        trace = tiny_trace()
        for stream in trace.per_core:
            for acc in stream:
                if acc.kind == WRITE and acc.changed_idx.size:
                    assert acc.changed_idx.min() >= 0
                    assert acc.changed_idx.max() < 1024

    def test_slc_changes_exceed_mlc(self):
        trace = tiny_trace()
        assert (
            trace.stats.mean_slc_bit_changes
            >= trace.stats.mean_cells_changed
        )

    def test_iteration_counts_bounded(self):
        trace = tiny_trace()
        all_iters = np.concatenate([
            acc.iter_counts
            for stream in trace.per_core for acc in stream
            if acc.kind == WRITE and acc.iter_counts.size
        ])
        assert all_iters.max() <= 16


def _trace_digest(trace) -> str:
    """sha256 over every record and the aggregate stats of a trace."""
    h = hashlib.sha256(repr(trace.stats).encode())
    for stream in trace.per_core:
        for acc in stream:
            h.update(repr((
                acc.core, acc.kind, acc.line_addr, acc.gap_instr,
                acc.gap_hit_cycles, acc.slc_bit_changes,
            )).encode())
            if acc.changed_idx is not None:
                h.update(acc.changed_idx.tobytes())
                h.update(acc.iter_counts.tobytes())
    return h.hexdigest()


#: Trace digests at line sizes the golden corpus (256 B only) does not
#: cover. The digest depends on the prewarm's stores and on the RNG
#: state it leaves behind (the CPU reference stream continues from it).
#: Eight cores give mix_1 every content kind (fp, int and random).
_TRACE_DIGESTS = {
    ("mix_1", 64): "216991dbfca228eaba2f8e875b77171b0902338f28a652cf4144cd0cd85882ba",
    ("mix_1", 128): "b1370c8fd10f52ad66df8740d41aa6564feb2d12e2e9470452c7310defa680ed",
    ("mix_1", 256): "136639fa67317e3ad37d5268e03c1291aff2a677f309cfcfdcca7b070a2be4f1",
    ("tig_m", 64): "dfff4a12047b3faa3423f761904ab23ff7c1e4d7d87631538e5df520b2df797e",
    ("tig_m", 128): "cc9942ff6792d3711c84d2285ec5fd0498211ac12af712319a0fa678a1e5a37a",
    ("tig_m", 256): "a54bef570137f470ed0f7aee3eccf11d2a41af69eed25d0c90c0628fd705e28a",
}


@pytest.mark.parametrize("kernel", ["reference", "vectorized"])
@pytest.mark.parametrize("workload,line_size", sorted(_TRACE_DIGESTS))
def test_trace_bytes_pinned(workload, line_size, kernel):
    cores = 8 if workload == "mix_1" else 2
    config = replace(make_tiny_config(), cpu=CPUConfig(cores=cores))
    config = config.with_line_size(line_size).with_kernel(kernel)
    trace = generate_trace(
        config, workload, n_pcm_writes=40, max_refs_per_core=5_000,
        use_cache=False,
    )
    assert _trace_digest(trace) == _TRACE_DIGESTS[workload, line_size]


#: (sha256 prefix of the old and new blocks, the generator's next
#: draw) for each content kind x line size x line count.
_PAIR_DIGESTS = {
    ("int", 64, 0): ("e3b0c44298fc1c14", 2537143904657330355),
    ("int", 64, 1): ("98f3945893f5513c", 3254715758478137271),
    ("int", 64, 7): ("c45c5d644e552cb7", 1323533979265652160),
    ("int", 64, 1000): ("6276cf91c3e14773", 123467878521080570),
    ("int", 128, 0): ("e3b0c44298fc1c14", 4364965597192553490),
    ("int", 128, 1): ("ee219b6be0d6ab3c", 1330720976426936938),
    ("int", 128, 7): ("b198d1fe2162fbb7", 912124943593877278),
    ("int", 128, 1000): ("f65f65dbfa558a83", 338363896303687980),
    ("int", 256, 0): ("e3b0c44298fc1c14", 2552718843122803761),
    ("int", 256, 1): ("1666e867f5cd8dcb", 152262400166839826),
    ("int", 256, 7): ("f257f34c6f0ecc8c", 2212088265966441288),
    ("int", 256, 1000): ("460b704c06410a84", 4421615441386244582),
    ("fp", 64, 0): ("e3b0c44298fc1c14", 373105111764869233),
    ("fp", 64, 1): ("ef1614d66d62101d", 2590497530475267023),
    ("fp", 64, 7): ("2bc75d2d220c9a02", 2387522855439418369),
    ("fp", 64, 1000): ("e32e7d94c7868e7e", 4386836646314494879),
    ("fp", 128, 0): ("e3b0c44298fc1c14", 655356435949357623),
    ("fp", 128, 1): ("2a99c69ffa968ab9", 3380057419992335650),
    ("fp", 128, 7): ("42f39018feabbd1f", 3060566585804793244),
    ("fp", 128, 1000): ("d7396e46ddce8582", 4351532993759835382),
    ("fp", 256, 0): ("e3b0c44298fc1c14", 2467407380138825433),
    ("fp", 256, 1): ("8f787ef258206cc8", 3890466963647733648),
    ("fp", 256, 7): ("0197e243c52e8dc8", 3654655870617420979),
    ("fp", 256, 1000): ("fcb5b9ce1497be4e", 416336422722637219),
    ("random", 64, 0): ("e3b0c44298fc1c14", 567674544781693892),
    ("random", 64, 1): ("79b184af411c6302", 2643709852094669489),
    ("random", 64, 7): ("3b78faa082ca7fbb", 1403634806705980776),
    ("random", 64, 1000): ("3a99c57c6ac6645a", 3763564100314926451),
    ("random", 128, 0): ("e3b0c44298fc1c14", 3052481588378556906),
    ("random", 128, 1): ("5a886b776c6ed568", 2971180101910487679),
    ("random", 128, 7): ("994f811f8d461337", 861953504781218944),
    ("random", 128, 1000): ("209a91273f1c1e64", 1136194708042627514),
    ("random", 256, 0): ("e3b0c44298fc1c14", 963138777384186093),
    ("random", 256, 1): ("5853f9e379f5a103", 15214332059482750),
    ("random", 256, 7): ("ab716dc2f685abac", 3308827100783857796),
    ("random", 256, 1000): ("bc65f7657d7625ef", 949788309100445962),
}


@pytest.mark.parametrize("n_lines", [0, 1, 7, 1000])
@pytest.mark.parametrize("line_size", [64, 128, 256])
@pytest.mark.parametrize("kind", LINE_KINDS)
def test_line_pair_bytes_pinned(kind, line_size, n_lines):
    rng = make_rng(3, "line_pair", kind, line_size, n_lines)
    old, new = make_line_pair(kind, rng, n_lines, line_size)
    assert old.shape == new.shape == (n_lines, line_size)
    assert old.dtype == new.dtype == np.uint8
    digest = hashlib.sha256(old.tobytes() + new.tobytes()).hexdigest()[:16]
    next_draw = int(rng.integers(1 << 62))
    assert (digest, next_draw) == _PAIR_DIGESTS[kind, line_size, n_lines]
