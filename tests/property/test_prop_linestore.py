"""Property tests: ``LineStore`` bulk writes equal row-by-row writes.

The L3 prewarm installs every fabricated line through
``LineStore.write_rows``; these properties are what make that
equivalent to one ``write`` per row. Any interleaving of ``write``,
``write_rows`` and ``write_bytes`` must leave the store matching a plain
dict model that applies a bulk write row by row, in order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcm.contents import LineStore

LINE = 8
#: A handful of line slots, so repeated addresses are common both inside
#: one bulk block and across blocks.
SLOTS = 5

line_addr = st.integers(0, SLOTS - 1).map(lambda k: k * LINE)
line_data = st.binary(min_size=LINE, max_size=LINE)

write_op = st.tuples(st.just("write"), line_addr, line_data)
rows_op = st.tuples(
    st.just("rows"), st.lists(st.tuples(line_addr, line_data), max_size=8)
)
bytes_op = st.tuples(
    st.just("bytes"),
    st.integers(0, SLOTS * LINE - 1),
    st.binary(min_size=1, max_size=2 * LINE),
)
ops = st.lists(st.one_of(write_op, rows_op, bytes_op), max_size=25)


def apply_model(model, op):
    """The reference semantics: a bulk write is one write per row."""
    if op[0] == "write":
        model[op[1]] = bytearray(op[2])
    elif op[0] == "rows":
        for addr, data in op[1]:
            model[addr] = bytearray(data)
    else:
        _, addr, payload = op
        for i, byte in enumerate(payload):
            line = (addr + i) // LINE * LINE
            model.setdefault(line, bytearray(LINE))[addr + i - line] = byte


def apply_store(store, op):
    if op[0] == "write":
        store.write(op[1], np.frombuffer(op[2], dtype=np.uint8))
    elif op[0] == "rows":
        rows = op[1]
        addrs = np.array([addr for addr, _ in rows], dtype=np.int64)
        block = np.frombuffer(
            b"".join(data for _, data in rows), dtype=np.uint8
        ).reshape(len(rows), LINE)
        store.write_rows(addrs, block)
    else:
        store.write_bytes(op[1], op[2])


def assert_matches(store, model):
    assert len(store) == len(model)
    listed = list(store.addresses())
    assert len(listed) == len(set(listed))
    assert set(listed) == set(model)
    # Probe one line past the slots too: write_bytes can spill into it.
    for addr in range(0, (SLOTS + 2) * LINE, LINE):
        assert (addr in store) == (addr in model)
        expected = bytes(model.get(addr, bytearray(LINE)))
        assert store.read(addr).tobytes() == expected


@given(sequence=ops)
@settings(max_examples=200)
def test_interleaved_writes_match_row_by_row_model(sequence):
    store, model = LineStore(LINE), {}
    for op in sequence:
        apply_store(store, op)
        apply_model(model, op)
        assert_matches(store, model)


@given(rows=st.lists(st.tuples(line_addr, line_data), min_size=1, max_size=8))
@settings(max_examples=60)
def test_write_rows_copies_its_block(rows):
    """Mutating the caller's block or a read-back line after the bulk
    write changes nothing in the store."""
    store, model = LineStore(LINE), {}
    addrs = np.array([addr for addr, _ in rows], dtype=np.int64)
    block = np.frombuffer(
        b"".join(data for _, data in rows), dtype=np.uint8
    ).reshape(len(rows), LINE).copy()
    store.write_rows(addrs, block)
    apply_model(model, ("rows", rows))
    block ^= 0xFF
    store.read(int(addrs[0]))[:] ^= 0xFF
    assert_matches(store, model)
