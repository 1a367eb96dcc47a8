"""Functional (contents-only) memory stores.

Timing is modeled by the channel/link/queue models; *contents* live
here.  Workloads store real data structures (graphs, hash tables, bit
arrays) in a :class:`FlatMemory` so that their access streams are
genuinely data-dependent, exactly like the applications in the paper.

Words are 64-bit, matching the paper's ``dev_access(uint64*)`` API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import AddressError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["FlatMemory", "WORD_BYTES"]

#: The access granularity of dev_access(uint64*).
WORD_BYTES = 8

_WORD_MASK = (1 << 64) - 1

#: Whole lines per page, so a line never straddles two pages.
_LINES_PER_PAGE = 64

#: Page contents are little-endian 64-bit words on any host, so a
#: line's bytes are the same everywhere.
_WORD_DTYPE = "<u8"


class FlatMemory:
    """A sparse, paged, byte-addressed memory of 64-bit words.

    Unwritten words read as zero (like fresh mmap'd pages).  Lines are
    read as ``bytes`` so that device responses carry real content end
    to end -- the replay-fidelity tests compare these against recorded
    traces byte for byte.

    A page holds ``_LINES_PER_PAGE`` whole lines as a little-endian
    word array beside a per-word written mask; a page exists once any
    of its words is written.  numpy is imported with the first page,
    so a memory nobody writes never loads it.
    """

    def __init__(self, line_bytes: int = 64) -> None:
        if line_bytes <= 0 or line_bytes % WORD_BYTES != 0:
            raise AddressError("line size must be a positive multiple of the word size")
        self.line_bytes = line_bytes
        self._line_words = line_bytes // WORD_BYTES
        self._page_words = _LINES_PER_PAGE * self._line_words
        #: page number -> (words, written mask)
        self._pages: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._written = 0

    @staticmethod
    def _check_word_aligned(addr: int) -> None:
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        if addr % WORD_BYTES != 0:
            raise AddressError(f"address {addr:#x} is not 8-byte aligned")

    def _page(self, number: int) -> tuple[np.ndarray, np.ndarray]:
        """Page ``number``, created zeroed and unwritten on first use."""
        page = self._pages.get(number)
        if page is None:
            import numpy as np

            page = (
                np.zeros(self._page_words, dtype=_WORD_DTYPE),
                np.zeros(self._page_words, dtype=bool),
            )
            self._pages[number] = page
        return page

    def read_word(self, addr: int) -> int:
        """Read the 64-bit word at byte address ``addr``."""
        self._check_word_aligned(addr)
        number, index = divmod(addr // WORD_BYTES, self._page_words)
        page = self._pages.get(number)
        return 0 if page is None else page[0].item(index)

    def write_word(self, addr: int, value: int) -> None:
        """Write the 64-bit word at byte address ``addr``."""
        self._check_word_aligned(addr)
        number, index = divmod(addr // WORD_BYTES, self._page_words)
        words, written = self._page(number)
        words[index] = value & _WORD_MASK
        if not written[index]:
            written[index] = True
            self._written += 1

    def write_words(self, addr: int, words) -> None:
        """Write consecutive 64-bit words from byte address ``addr`` on.

        ``words`` is a ``uint64`` array, or any iterable of ints, each
        masked to 64 bits like :meth:`write_word`.  The result is that
        of writing each word in turn; the address is checked before
        anything is written.
        """
        import numpy as np

        self._check_word_aligned(addr)
        if not (isinstance(words, np.ndarray) and words.dtype == np.uint64):
            words = np.fromiter((int(word) & _WORD_MASK for word in words), dtype=np.uint64)
        first = addr // WORD_BYTES
        done = 0
        while done < len(words):
            number, index = divmod(first + done, self._page_words)
            take = min(len(words) - done, self._page_words - index)
            page_words, page_written = self._page(number)
            page_words[index : index + take] = words[done : done + take]
            written = page_written[index : index + take]
            self._written += take - int(np.count_nonzero(written))
            written[:] = True
            done += take

    def line_address(self, addr: int) -> int:
        """The line-aligned base address containing ``addr``."""
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        return addr - (addr % self.line_bytes)

    def read_line(self, line_addr: int) -> bytes:
        """Read one full cache line as bytes (little-endian words)."""
        if line_addr % self.line_bytes != 0:
            raise AddressError(f"address {line_addr:#x} is not line aligned")
        if line_addr < 0:
            raise AddressError(f"negative address {line_addr:#x}")
        number, index = divmod(line_addr // WORD_BYTES, self._page_words)
        page = self._pages.get(number)
        if page is None:
            return bytes(self.line_bytes)
        return page[0][index : index + self._line_words].tobytes()

    def word_count(self) -> int:
        """Number of distinct words ever written (sparse footprint).

        Exact and O(1): a write counts once per word, however often
        the word is rewritten and whatever value it holds.
        """
        return self._written

    @staticmethod
    def word_from_line(line_addr: int, line_data: bytes, addr: int) -> int:
        """Extract the word at ``addr`` from a line's byte content."""
        offset = addr - line_addr
        if offset < 0 or offset + WORD_BYTES > len(line_data):
            raise AddressError(
                f"address {addr:#x} outside line at {line_addr:#x}"
            )
        if offset % WORD_BYTES != 0:
            raise AddressError(f"address {addr:#x} is not 8-byte aligned")
        return int.from_bytes(line_data[offset : offset + WORD_BYTES], "little")
