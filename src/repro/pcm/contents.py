"""Sparse PCM line-content store.

A 4 GB PCM image cannot be held densely in memory, but only lines that
are actually written need storage. Unwritten lines read as all zeros
(the paper's examples assume "the memory initially contains all 0s",
Section 2.1.3).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..errors import TraceError


class LineStore:
    """Maps line-aligned addresses to their current byte contents.

    Lines written one at a time live in ``_lines``. A bulk write keeps
    its whole block and indexes its rows by address in ``_rows`` (global
    row numbers, counted across ``_blocks`` from ``_starts``), so a
    block of lines costs one array and one dict entry per line. An
    address lives in exactly one of the two.
    """

    def __init__(self, line_size: int):
        if line_size <= 0:
            raise TraceError(f"line size must be positive, got {line_size}")
        self.line_size = line_size
        self._lines: Dict[int, np.ndarray] = {}
        self._blocks: List[np.ndarray] = []
        self._starts: List[int] = []
        self._rows: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._lines) + len(self._rows)

    def __contains__(self, line_addr: int) -> bool:
        return line_addr in self._lines or line_addr in self._rows

    def addresses(self) -> Iterator[int]:
        return itertools.chain(self._lines, self._rows)

    def _check_aligned(self, line_addr: int) -> None:
        if line_addr % self.line_size:
            raise TraceError(
                f"address {line_addr:#x} is not {self.line_size}-byte aligned"
            )

    def _line(self, line_addr: int) -> Optional[np.ndarray]:
        """The stored line itself (a block row is a view), or ``None``."""
        line = self._lines.get(line_addr)
        if line is None:
            row = self._rows.get(line_addr)
            if row is not None:
                k = bisect.bisect_right(self._starts, row) - 1
                line = self._blocks[k][row - self._starts[k]]
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
        self._rows.pop(line_addr, None)
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
        if addrs.size and (addrs % self.line_size).any():
            raise TraceError(
                f"addresses must be {self.line_size}-byte aligned"
            )
        keys = addrs.tolist()
        if self._lines:
            for addr in self._lines.keys() & set(keys):
                del self._lines[addr]
        first = self._starts[-1] + len(self._blocks[-1]) if self._blocks else 0
        self._starts.append(first)
        self._blocks.append(block)
        self._rows.update(zip(keys, range(first, first + len(keys))))

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
