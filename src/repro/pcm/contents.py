"""Sparse PCM line-content store.

A 4 GB PCM image cannot be held densely in memory, but only lines that
are actually written need storage. Unwritten lines read as all zeros
(the paper's examples assume "the memory initially contains all 0s",
Section 2.1.3).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from ..errors import TraceError


class _Block:
    """One bulk write: its rows plus a sorted index of their addresses.

    ``keys`` holds each distinct address once, sorted, and ``rows`` the
    row that holds its contents (the later one for a repeated address).
    """

    __slots__ = ("data", "keys", "rows", "lo", "hi")

    def __init__(self, data: np.ndarray, addrs: np.ndarray):
        order = np.argsort(addrs, kind="stable")
        keys = addrs[order]
        last = np.ones(keys.size, dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        self.data = data
        self.keys = keys[last]
        self.rows = order[last]
        self.lo = int(self.keys[0])
        self.hi = int(self.keys[-1])

    def get(self, line_addr: int) -> Optional[np.ndarray]:
        if self.lo <= line_addr <= self.hi:
            i = self.keys.searchsorted(line_addr)
            if self.keys[i] == line_addr:
                return self.data[self.rows[i]]
        return None


class LineStore:
    """Maps line-aligned addresses to their current byte contents.

    Lines written one at a time live in ``_lines``. A bulk write keeps
    its whole block with a sorted address index (:class:`_Block`), so a
    block of lines costs one array and 16 bytes of index per line rather
    than a dict entry each. A lookup tries ``_lines`` and then the
    blocks newest first; a bulk write drops the ``_lines`` copies of its
    addresses, so the latest write of an address is always the one found.
    """

    def __init__(self, line_size: int):
        if line_size <= 0:
            raise TraceError(f"line size must be positive, got {line_size}")
        self.line_size = line_size
        self._lines: Dict[int, np.ndarray] = {}
        self._blocks: List[_Block] = []

    def __len__(self) -> int:
        return len(self._address_set())

    def __contains__(self, line_addr: int) -> bool:
        return self._line(line_addr) is not None

    def addresses(self) -> Iterator[int]:
        return iter(sorted(self._address_set()))

    def _address_set(self) -> set:
        keys = set(self._lines)
        for block in self._blocks:
            keys.update(block.keys.tolist())
        return keys

    def _check_aligned(self, line_addr: int) -> None:
        if line_addr % self.line_size:
            raise TraceError(
                f"address {line_addr:#x} is not {self.line_size}-byte aligned"
            )

    def _line(self, line_addr: int) -> Optional[np.ndarray]:
        """The stored line itself (a block row is a view), or ``None``."""
        line = self._lines.get(line_addr)
        if line is None:
            for block in reversed(self._blocks):
                line = block.get(line_addr)
                if line is not None:
                    break
        return line

    def read(self, line_addr: int) -> np.ndarray:
        """Current contents of a line (zeros if never written).

        Returns a copy; mutating it does not affect the store.
        """
        self._check_aligned(line_addr)
        line = self._line(line_addr)
        if line is None:
            return np.zeros(self.line_size, dtype=np.uint8)
        return line.copy()

    def write(self, line_addr: int, data: np.ndarray) -> None:
        """Replace the contents of a line."""
        self._check_aligned(line_addr)
        data = np.asarray(data, dtype=np.uint8)
        if data.size != self.line_size:
            raise TraceError(
                f"line data must be {self.line_size} bytes, got {data.size}"
            )
        self._lines[line_addr] = data.copy()

    def write_rows(self, line_addrs: np.ndarray, block: np.ndarray) -> None:
        """Bulk write: row ``i`` of ``block`` becomes line ``addrs[i]``.

        Equivalent to calling :meth:`write` once per row in order (a
        repeated address keeps the later row), with one shared copy of
        the block instead of one per line.
        """
        block = np.array(block, dtype=np.uint8, copy=True, ndmin=2)
        addrs = np.asarray(line_addrs, dtype=np.int64)
        if block.shape[0] != addrs.size or block.shape[1] != self.line_size:
            raise TraceError(
                f"block must be {addrs.size} x {self.line_size} bytes, "
                f"got {block.shape}"
            )
        if not addrs.size:
            return
        if (addrs % self.line_size).any():
            raise TraceError(
                f"addresses must be {self.line_size}-byte aligned"
            )
        block = _Block(block, addrs)
        if self._lines:
            lines = np.fromiter(self._lines, np.int64, len(self._lines))
            i = np.minimum(block.keys.searchsorted(lines), block.keys.size - 1)
            for addr in lines[block.keys[i] == lines].tolist():
                del self._lines[addr]
        self._blocks.append(block)

    def write_bytes(self, addr: int, payload: bytes) -> None:
        """Write an arbitrary (possibly unaligned) byte span."""
        data = np.frombuffer(payload, dtype=np.uint8)
        pos = 0
        while pos < data.size:
            line_addr = (addr + pos) // self.line_size * self.line_size
            line_off = (addr + pos) - line_addr
            n = min(self.line_size - line_off, data.size - pos)
            line = self._line(line_addr)
            if line is None:
                line = self._lines[line_addr] = np.zeros(
                    self.line_size, dtype=np.uint8
                )
            line[line_off:line_off + n] = data[pos:pos + n]
            pos += n
