"""Per-benchmark line-content models.

Most PCM writes observed in a finite window are *first* writes to their
PCM line, so the cell-change count and its distribution across chips are
set by the line's byte content (diffed against the all-zero PCM array).
These fabricators give each benchmark class a plausible resident-line
content:

* ``int``  — arrays of small integers and pointers: the low-order bytes
  of each word carry data while high bytes are often zero, reproducing
  the "lower-order bits are more likely to change" behaviour that makes
  naive/VIM mappings concentrate changes in a chip (Section 4.3).
* ``fp``   — double-precision values near 1.0: sign/exponent and high
  mantissa bytes are all populated, spreading changes across the word.
* ``random`` — text/genome payloads: uniformly random bytes.

:func:`make_line_pair` turns a block into (old, new) version pairs for
the L3 prewarm. Its delta is defined per value word (32-bit for ``int``,
64-bit for ``fp`` and ``random``): a word mask selects which bits take
fresh random content, applied as one bitwise select over the block.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ...errors import TraceError

LINE_KINDS = ("int", "fp", "random")


def make_line_block(
    kind: str, rng: np.random.Generator, n_lines: int, line_size: int
) -> np.ndarray:
    """Fabricate ``n_lines`` lines of plausible content, shape
    ``(n_lines, line_size)`` uint8."""
    if line_size % 8:
        raise TraceError(f"line size {line_size} is not a whole word count")
    if n_lines <= 0:
        return np.zeros((0, line_size), dtype=np.uint8)
    words_per_line = line_size // 8
    shape = (n_lines, words_per_line)
    if kind == "int":
        words = _int_words(rng, shape)
    elif kind == "fp":
        words = _fp_words(rng, shape)
    elif kind == "random":
        words = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    else:
        raise TraceError(f"unknown line kind {kind!r}; use one of {LINE_KINDS}")
    # Leave a fraction of words zero (never-initialized slack).
    zero_frac = {"int": 0.30, "fp": 0.35, "random": 0.50}[kind]
    words[rng.random(shape) < zero_frac] = 0
    return words.view(np.uint8).reshape(n_lines, line_size)


#: Per-kind steady-state write-increment model (Section 4.3's data
#: observations). ``unit`` is the value granularity in bytes (one
#: little-endian word: byte 0 holds the lowest-order bits -> the
#: lowest-order cells), ``pattern`` the bits of a touched unit that
#: change, ``cluster`` how many units a modification run covers (struct
#: updates / stencil fronts are spatially clustered, which is what
#: concentrates changes in one chip under the naive mapping),
#: ``density`` the fraction of units touched, and ``full_frac`` the
#: fraction of touched units rewritten entirely (pointer stores, fresh
#: payloads).
_DELTA_MODELS = {
    # 32-bit integers: the low-order byte churns (counters, indices).
    "int": dict(unit=4, pattern=0xFF, cluster=16, density=0.40,
                full_frac=0.20),
    # Doubles: sign/exponent stable, low five mantissa bytes churn.
    "fp": dict(unit=8, pattern=0xFF_FFFF_FFFF, cluster=4,
               density=0.55, full_frac=0.05),
    # Text/genome payloads: whole values replaced, in sequential runs.
    "random": dict(unit=8, pattern=0xFFFF_FFFF_FFFF_FFFF, cluster=2,
                   density=0.28, full_frac=0.0),
}


def _clustered_mask(
    rng: np.random.Generator, n_lines: int, n_units: int,
    cluster: int, density: float,
) -> np.ndarray:
    """Touched-unit mask where modifications come in aligned runs of
    ``cluster`` units, with a per-line random phase."""
    cluster = max(1, min(cluster, n_units))
    n_blocks = n_units // cluster + 2
    block_touched = rng.random((n_lines, n_blocks)) < density
    shift = rng.integers(0, cluster, size=n_lines)
    # Unit u of a line lies in block (u + shift) // cluster: spread each
    # block over its ``cluster`` units and read a window at the phase.
    units = np.repeat(block_touched, cluster, axis=1)
    windows = sliding_window_view(units, n_units, axis=1)
    return windows[np.arange(n_lines), shift]


def make_line_pair(
    kind: str, rng: np.random.Generator, n_lines: int, line_size: int
) -> "tuple[np.ndarray, np.ndarray]":
    """An (old, new) version pair for each line.

    ``old`` is what the PCM array last stored; ``new`` is the dirty
    cached copy about to be written back. The delta between them models
    each benchmark's steady-state write increment and its *spatial*
    structure, which determines per-chip imbalance: integer code updates
    the low-order bytes of clustered 32-bit words (struct fields), FP
    sweeps rewrite mantissas of runs of doubles, random payloads replace
    whole values sequentially.
    """
    try:
        model = _DELTA_MODELS[kind]
    except KeyError:
        raise TraceError(
            f"unknown line kind {kind!r}; use one of {LINE_KINDS}"
        ) from None
    old = make_line_block(kind, rng, n_lines, line_size)
    if n_lines == 0:
        return old, old.copy()
    word = np.dtype(f"<u{model['unit']}")
    n_units = line_size // word.itemsize
    touched = _clustered_mask(
        rng, n_lines, n_units, model["cluster"], model["density"]
    )
    mask = np.where(touched, word.type(model["pattern"]), word.type(0))
    if model["full_frac"]:
        full = touched & (rng.random(touched.shape) < model["full_frac"])
        mask[full] = np.iinfo(word).max
    fresh = rng.integers(0, 256, size=(n_lines, line_size), dtype=np.uint8)
    # Bitwise select per word: masked bits from ``fresh``, the rest old.
    old_words = old.view(word)
    new = old_words ^ ((old_words ^ fresh.view(word)) & mask)
    return old, new.view(np.uint8)


def _int_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Small counters/indices (low bytes only) mixed with full pointers."""
    small = rng.integers(0, 1 << 20, size=shape, dtype=np.uint64)
    pointers = (
        rng.integers(0x7F00_0000_0000, 0x7FFF_FFFF_FFFF, size=shape, dtype=np.uint64)
        << 4
    )
    is_pointer = rng.random(shape) < 0.25
    return np.where(is_pointer, pointers, small)


def _fp_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Doubles in [0.5, 2): fully populated exponent + mantissa bytes."""
    values = 0.5 + 1.5 * rng.random(shape)
    return values.astype(np.float64).view(np.uint64)
