"""Cache geometry description.

The paper's platforms share one L1: 16-way set-associative, 1024 lines,
and a line holding 1 word of 8 bits in the default configuration
(Section IV-A).  Table I sweeps the line size over 1, 2, 4 and 8 words.
``CacheGeometry`` captures exactly those parameters plus the word size,
and derives the index/offset arithmetic every other cache component
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Word size of the paper's platforms: "a single word consisting of 8 bits".
WORD_BYTES: int = 1


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a set-associative cache.

    Parameters
    ----------
    total_lines:
        Total number of cache lines (paper default: 1024).
    ways:
        Associativity (paper default: 16).
    line_words:
        Words per line (paper default: 1; Table I sweeps 1/2/4/8).
    word_bytes:
        Bytes per word (paper platforms: 1).
    """

    total_lines: int = 1024
    ways: int = 16
    line_words: int = 1
    word_bytes: int = WORD_BYTES

    def __post_init__(self) -> None:
        for name in ("total_lines", "ways", "line_words", "word_bytes"):
            value = getattr(self, name)
            if not _is_power_of_two(value):
                raise ValueError(f"{name} must be a power of two, got {value}")
        if self.ways > self.total_lines:
            raise ValueError(
                f"associativity {self.ways} exceeds line count {self.total_lines}"
            )

    @property
    def line_bytes(self) -> int:
        """Bytes per cache line."""
        return self.line_words * self.word_bytes

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.total_lines // self.ways

    @property
    def capacity_bytes(self) -> int:
        """Total cache capacity in bytes."""
        return self.total_lines * self.line_bytes

    def lines_spanned(self, nbytes: int) -> int:
        """Cache lines a line-aligned object of ``nbytes`` occupies.

        This is the footprint term of the leakage model: a lookup into a
        table spanning ``n`` lines reveals at most ``log2(n)`` bits per
        access to a line-granularity observer.
        """
        if nbytes <= 0:
            raise ValueError(f"object size must be positive, got {nbytes}")
        return -(-nbytes // self.line_bytes)

    def line_of(self, address: int) -> int:
        """Line number (address stripped of the intra-line offset)."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        return address // self.line_bytes

    def set_of(self, address: int) -> int:
        """Cache set an address maps to (modulo indexing)."""
        return self.line_of(address) % self.num_sets

    def tag_of(self, address: int) -> int:
        """Tag stored for an address (line number above the set index)."""
        return self.line_of(address) // self.num_sets


#: The paper's default L1 configuration.
PAPER_DEFAULT_GEOMETRY = CacheGeometry()

#: Named geometries the CLIs accept via ``--geometry``.  The ``paper-*``
#: presets are the Table I line-size sweep of the paper's 16-way,
#: 1024-line L1 (1-byte words); ``paper-8word`` is also the line size
#: the Section IV-C reshaped-S-box countermeasure prescribes.  ``arm``
#: is the mobile-SoC scenario geometry of the :mod:`repro.soc`
#: direction — an ARMageddon-style Cortex-A L1-D (32 KiB, 4-way,
#: 64-byte lines of sixteen 4-byte words).
GEOMETRY_PRESETS: Dict[str, CacheGeometry] = {
    "paper": PAPER_DEFAULT_GEOMETRY,
    "paper-2word": CacheGeometry(line_words=2),
    "paper-4word": CacheGeometry(line_words=4),
    "paper-8word": CacheGeometry(line_words=8),
    "arm": CacheGeometry(total_lines=512, ways=4, line_words=16,
                         word_bytes=4),
}


def geometry_preset(name: str) -> CacheGeometry:
    """Look up a named geometry preset (raises ``KeyError`` with the
    known names on a miss)."""
    try:
        return GEOMETRY_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(GEOMETRY_PRESETS))
        raise KeyError(
            f"unknown geometry preset {name!r}; known presets: {known}"
        ) from None


def preset_name_of(geometry: CacheGeometry) -> "str | None":
    """Name of the preset equal to ``geometry``, if any (used so reports
    can record which preset produced them)."""
    for name, candidate in GEOMETRY_PRESETS.items():
        if candidate == geometry:
            return name
    return None
