"""Reader and writer of the package's data files.

Every data file is a text table below one header line,

    # key=value key=value ...

The header is the first line and only the first line.  Its tokens are
whitespace-separated ``key=value`` pairs with no spaces around ``=``.
Floats in the header are written ``%.12g``, integers and strings as
they are; a writer that needs more digits passes a formatted string.
The body rows are delimited numbers in a format that belongs to each
file:

* ``jsa.csv`` and ``jsi.csv``, header
  ``ns=<int> ni=<int> dnu_s_hz=<float> dnu_i_hz=<float> nu0_hz=<float>``.
  Rows are idler samples, columns signal samples; axes are centred on
  zero detuning.  Both photons share one axis, so both axis pairs are
  written, equal, and the loaders reject a file where they differ.  JSA
  entries are ``%.17g%+.17gj`` complex numbers (e.g.
  ``1.2e-145-3.4e-146j``), which read back bit-identical; JSI entries
  are ``%.12e`` floats.  ``nu0_hz`` records the absolute degenerate
  frequency for wavelength mapping.
* ``domains.tsv``, header ``total_length_m``; rows ``width<TAB>+1`` or
  ``width<TAB>-1``.  Widths and length are ``%.17g``, so the widths
  read back bit-identical and still sum to the length.
* ``curve.tsv`` and ``counts.tsv``, header ``kind``; rows
  ``delay,value`` in ``%.12e``.
* ``pmf_curve.tsv``, ``marginals.tsv`` and ``probabilities.tsv``,
  header ``columns=<name>,<name>,...``; one row per sample, ``%.12g``
  values tab-separated in the order the header names them.
* count files, header ``nt dt_ps t0_ns disp_ns_per_nm
  ref_wavelength_m nu0_hz``; an ``nt x nt`` integer matrix.  ``nu0_hz``
  is the band center the detunings are measured from, written ``%.17g``
  so that the gates computed from it read back bit-identical.  A
  simulated tomography projection adds the bin layout it was drawn
  with, ``bin_spacing_hz`` (``%.17g``) and ``pair_count``; a count file
  without them (real data) still reads.

Every body row is ``row_format % tuple(row.tolist())`` of one row of a
2-d array, formatted in `write_table` and nowhere else, in one process
on one thread.  Two kinds of table are formatted with numpy, a block of
rows at a time, to the same bytes:

* a float table whose conversions are all ``%.17g`` and ``%+.17g`` (the
  JSA) or all ``%.12e`` (the JSI and the curves): each value is rounded
  to its significant digits in double-double arithmetic and its
  characters are gathered from lookup tables;
* an integer table whose row format is ``%d`` conversions joined by one
  literal of one to four characters (the count files): each value's
  four-digit groups are gathered from a table of ``"%04d"`` plus the
  literal, masked to the digits ``%d`` writes.

``%`` itself formats every other table, and any row holding a value the
vectorised path does not decide: a negative integer, or a non-finite
float, one of magnitude 1e290 or more, one within 1e-9 of a rounding
tie, or one that ``%g`` writes in fixed notation.  The lookup tables are
built on the first write that needs them.
"""

from __future__ import annotations

import functools
import re
import warnings

import numpy as np

__all__ = ["write_table", "read_table"]

# conversion -> (significant digits, stripped of trailing zeros as by %g,
# explicit plus sign)
_FAST = {"%.17g": (17, True, False), "%+.17g": (17, True, True), "%.12e": (13, False, False)}
_FAST_SPLIT = r"(%\+?\.17g|%\.12e)"  # compiled on the first write
# cells formatted at once: each temporary stays near 128 KB
_BLOCK_CELLS = 16384
_HUGE = 1e290  # from here up a row goes through %
_TINY = 1e-200  # below this a value is scaled by 2**_SCALE, exactly
_SCALE = 600
_POW_MIN, _POW_MAX = -300, 350  # powers of ten in the table
_POW_SIZE = _POW_MAX - _POW_MIN + 1
_EXP_MIN, _EXP_MAX = -330, 330  # exponent suffixes in the table


@functools.cache
def _tables():
    """Lookup tables of the vectorised formatter, built on the first write.

    pow_hi[i] + pow_lo[i] is 10**(i + _POW_MIN) as a double-double, and
    entry i + _POW_SIZE the same power divided by 2**_SCALE, each part
    correctly rounded from Python integers (nan where unused or out of
    range).  digits4[g] is "%04d" % g as four bytes in one uint32 and
    keep4[g] the mask of those bytes that %g keeps when g ends the
    digits.  suffix[x - _EXP_MIN] is "e%+03d" % x as eight bytes in one
    uint64, suffix_mask its mask; the entry past the end is empty.
    """

    def double_double(num: int, den: int) -> tuple[float, float]:
        hi = num / den
        p, q = hi.as_integer_ratio()
        return hi, (num * q - p * den) / (den * q)

    plain, scaled = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        plain.append(double_double(1, 10**-k) if k < 0 else
                     double_double(10**k, 1) if k <= 300 else (np.nan, np.nan))
        scaled.append(double_double(10**k, 2**_SCALE) if k >= 0 else (np.nan, np.nan))
    digit = _group_digits()
    digits4 = (ord("0") + digit).view("<u4").ravel()
    # a digit is kept where it or a later one is nonzero
    keep4 = (np.maximum.accumulate(digit[:, ::-1], axis=1)[:, ::-1] > 0).view("<u4").ravel()
    suffixes = ["e%+03d" % x for x in range(_EXP_MIN, _EXP_MAX + 1)] + [""]
    suffix = np.frombuffer("".join(s.ljust(8, "\0") for s in suffixes).encode(), "<u8")
    suffix_mask = np.frombuffer(
        b"".join(b"\1" * len(s) + b"\0" * (8 - len(s)) for s in suffixes), "<u8"
    )
    pow_hi, pow_lo = np.array(plain + scaled).T.copy()
    return pow_hi, pow_lo, digits4, keep4, suffix, suffix_mask


def _group_digits() -> np.ndarray:
    """The four decimal digits of each group 0..9999, most significant
    first, as a (10000, 4) uint8 array."""
    return (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
            % 10).astype(np.uint8)


@functools.cache
def _int_tables(sep: str) -> tuple[np.ndarray, ...]:
    """Lookup tables of the integer formatter for cells ending in `sep`
    (one to four ASCII characters), built on the first write.

    word[g] is "%04d" % g + sep right-aligned in eight bytes of one
    uint64, and short[g] the mask of its bytes that "%d" % g + sep
    keeps: the digits from the first nonzero one (the last digit of 0)
    and the separator.  digits4[g] is "%04d" % g as four bytes in one
    uint32, and lead[g] the mask of those bytes that "%d" % g keeps when
    g leads a larger value: none for 0.
    """
    digit = _group_digits()
    tail = np.frombuffer(sep.encode("ascii"), np.uint8)
    pad = 8 - 4 - tail.size
    word = np.zeros((10000, 8), np.uint8)
    word[:, pad : pad + 4] = ord("0") + digit
    word[:, pad + 4 :] = tail
    lead = np.maximum.accumulate(digit, axis=1) > 0
    short = np.zeros((10000, 8), bool)
    short[:, pad : pad + 4] = lead
    short[:, pad + 3] = True  # "%d" writes 0 as one digit
    short[:, pad + 4 :] = True
    digits4 = (ord("0") + digit).view("<u4").ravel()
    return (word.view("<u8").ravel(), short.view("<u8").ravel(), digits4,
            lead.view("<u4").ravel())


def _split(x):
    """Dekker's split of doubles into halves of at most 26 significant bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _round_scaled(a, k, small):
    """(n, rem): a * 10**k rounded to the integer n, with the remainder
    rem in [-0.5, 0.5] (a already scaled by 2**_SCALE where `small`)."""
    index = k - _POW_MIN
    index[small] += _POW_SIZE
    pow_hi, pow_lo = _tables()[:2]
    hi, lo = pow_hi.take(index), pow_lo.take(index)
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    # p + q is a * (hi + lo) to about 2**-104 relative (Dekker's product)
    q = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    r = np.rint(p)
    f = (p - r) + q
    c = np.rint(f)
    return r.astype(np.int64) + c.astype(np.int64), f - c


def _decimal(a, digits: int):
    """(n, x, ok) for a 1-d array of finite positive doubles: each rounds
    to n * 10**(x - digits + 1) with n a `digits`-digit integer, as %e
    rounds it.  ok is False where that is not decided: within 1e-9 of a
    rounding tie."""
    small = a < _TINY
    scaled = a * np.where(small, 2.0**_SCALE, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    n, rem = _round_scaled(scaled, digits - 1 - x, small)
    low, high = 10 ** (digits - 1), 10**digits
    # log10 can be one off next to a power of ten; the exponent is that
    # of the unrounded n + rem
    up = (n > high) | (n == high) & (rem >= 0)
    down = (n < low) | (n == low) & (rem < 0)
    redo = np.flatnonzero(up | down)
    if redo.size:
        x[redo] += up[redo].astype(np.int64) - down[redo]
        n[redo], rem[redo] = _round_scaled(scaled[redo], digits - 1 - x[redo], small[redo])
    # a value such as 9.99...96e-5 rounds up to the next decade
    carry = n == high
    n[carry] = low
    x[carry] += 1
    ok = (np.abs(np.abs(rem) - 0.5) > 1e-9) & (n >= low) & (n < high)
    return n, x, ok


def _formatter(row_format: str, table):
    """The block formatter of `table` under `row_format`, or None where
    ``%`` formats every row: a 2-d integer table whose row format is
    ``%d`` conversions joined by one literal of one to four characters,
    or a float table whose conversions are all in _FAST and share their
    digits, a row of %.17g and %+.17g or of %.12e."""
    if table.ndim != 2 or not table.shape[1]:
        return None
    if table.dtype.kind in "iu":
        parts = row_format.split("%d")
        seps = set(parts[1:-1]) or {"\n"}  # the newline ends a lone column
        sep = seps.pop()
        if (
            len(parts) != table.shape[1] + 1
            or parts[0] or parts[-1] or seps
            or not 0 < len(sep) <= 4
            or not sep.isascii()
            or "%" in sep
        ):
            return None
        return _IntFormatter(sep)
    parts = re.split(_FAST_SPLIT, row_format)
    literals, convs = parts[::2], parts[1::2]
    if (
        not convs
        or any("%" in lit for lit in literals)
        or len({_FAST[conv][:2] for conv in convs}) > 1
        or table.dtype != np.float64
        or table.shape[1] != len(convs)
    ):
        return None
    return _BlockFormatter(literals, convs)


class _IntFormatter:
    """Formats blocks of rows of a nonnegative integer table with numpy.

    Each cell gets a slot of whole 8-byte words: the four-digit groups
    above its lowest, one uint32 each, then its lowest group and the
    separator in one word of _int_tables.  A block's slots hold as many
    groups as its largest value needs, and a mask of the same shape marks
    the bytes ``%d`` writes: the digits from the value's first nonzero
    one, and the separator, which in a row's last cell becomes its
    newline.  Compressing the buffer by the mask gives the rows.
    """

    def __init__(self, sep: str):
        self.sep = sep

    def format(self, x):
        """(buffer, mask, bad): the rows of block `x` in the buffer where
        the mask is set, and the rows that must go through % instead."""
        word_table, short_table, digits4_table, lead_table = _int_tables(self.sep)
        rows, k = x.shape
        bad = (x < 0).any(axis=1)
        if bad.any():
            x = np.maximum(x, 0)
        top, groups = int(x.max()), 1
        while top >= 10 ** (4 * groups):
            groups += 1
        slot = 1 + groups // 2  # words: the high groups, padded, then the lowest
        buf = np.empty((rows, k, slot), "<u8")
        mask = np.zeros((rows, k, slot), "<u8")
        w32, m32 = buf.view("<u4"), mask.view("<u4")
        rest, part = x, []  # the groups, lowest first
        for _ in range(groups - 1):
            rest, low = np.divmod(rest, 10000)
            part.append(low)
        part.append(rest)
        # kept: a nonzero group leads, so this one is written whole
        kept = np.zeros(x.shape, bool)
        for j in reversed(range(1, groups)):
            lead = lead_table.take(part[j])
            w32[:, :, 2 * slot - 2 - j] = digits4_table.take(part[j])
            m32[:, :, 2 * slot - 2 - j] = np.where(kept, 0x01010101, lead)
            kept |= part[j] != 0
        # every group is below 10000, so "clip" clips nothing; unlike
        # "raise", it lets take write into the buffers without a copy
        word_table.take(part[0], out=buf[:, :, -1], mode="clip")
        short_table.take(part[0], out=mask[:, :, -1], mode="clip")
        mask[:, :, -1][kept] = short_table[1000]  # all four digits
        b3 = buf.view(np.uint8).reshape(rows, k, -1)
        m3 = mask.view(np.uint8).reshape(rows, k, -1)
        end = b3.shape[2] - len(self.sep)
        b3[:, -1, end] = ord("\n")
        m3[:, -1, end + 1 :] = 0
        return b3.reshape(rows, -1), m3.view(bool).reshape(rows, -1), bad


class _BlockFormatter:
    """Formats blocks of rows of a float table with numpy.

    Each cell gets a slot of whole 8-byte words in a uint8 row buffer:
    the literal before it and its sign, first digit and point in the
    head, the other digits in two words and the exponent suffix in one.
    A boolean mask of the same shape marks the bytes the cell's ``%``
    conversion writes, and compressing the buffer by it gives the rows.
    """

    def __init__(self, literals: list[str], convs: list[str]):
        self.digits, self.strip = _FAST[convs[0]][:2]
        self.plus = np.array([_FAST[conv][2] for conv in convs])
        k = len(convs)
        self.head = -(-(max(map(len, literals[:-1])) + 3) // 8) * 8
        self.slot = self.head + 24
        tail = (literals[-1] + "\n").encode("ascii")
        self.width = k * self.slot + -(-len(tail) // 8) * 8
        self.row = np.zeros(self.width, np.uint8)
        self.row_mask = np.zeros(self.width, bool)
        cells = self.row[: k * self.slot].reshape(k, self.slot)
        cells_mask = self.row_mask[: k * self.slot].reshape(k, self.slot)
        for c, lit in enumerate(lit.encode("ascii") for lit in literals[:-1]):
            cells[c, self.head - 3 - len(lit) : self.head - 3] = np.frombuffer(lit, np.uint8)
            cells_mask[c, self.head - 3 - len(lit) : self.head - 3] = True
        cells[:, self.head - 1] = ord(".")
        cells_mask[:, self.head - 2] = True  # the first digit
        if not self.strip:  # %e keeps its point and every digit
            cells_mask[:, self.head - 1 : self.head + self.digits - 1] = True
        self.row[k * self.slot : k * self.slot + len(tail)] = np.frombuffer(tail, np.uint8)
        self.row_mask[k * self.slot : k * self.slot + len(tail)] = True

    def format(self, x):
        """(buffer, mask, bad): the rows of block `x` in the buffer where
        the mask is set, and the rows that must go through % instead."""
        digits4_table, keep4_table, suffix_table, suffix_mask = _tables()[2:]
        rows, k = x.shape
        h, digits = self.head, self.digits
        buf = np.empty((rows, self.width), np.uint8)
        mask = np.empty((rows, self.width), bool)
        buf[:] = self.row
        mask[:] = self.row_mask
        b3 = buf[:, : k * self.slot].reshape(rows, k, self.slot)
        m3 = mask[:, : k * self.slot].reshape(rows, k, self.slot)
        w32 = buf.view("<u4")[:, : k * self.slot // 4].reshape(rows, k, self.slot // 4)
        m32 = mask.view("<u4")[:, : k * self.slot // 4].reshape(rows, k, self.slot // 4)
        w64 = buf.view("<u8")[:, : k * self.slot // 8].reshape(rows, k, self.slot // 8)
        m64 = mask.view("<u8")[:, : k * self.slot // 8].reshape(rows, k, self.slot // 8)

        a = np.abs(x)
        finite = a < _HUGE  # False for inf and nan too
        zero = a == 0
        decided = _decimal(np.where(finite & ~zero, a, 1.0).ravel(), digits)
        n, e, ok = (v.reshape(x.shape) for v in decided)
        n[zero] = 0
        e[zero] = 0
        ok &= finite
        if self.strip:  # %g writes exponents from -4 to digits - 1 in fixed notation
            ok &= zero | (e < -4) | (e >= digits)

        neg = np.signbit(x)
        b3[:, :, h - 3] = np.where(neg, ord("-"), ord("+"))
        m3[:, :, h - 3] = neg | self.plus
        # kept: a nonzero digit follows, so %g keeps this group whole
        rest, kept = n, None
        for j in reversed(range((digits - 1) // 4)):
            quotient = rest // 10000
            group = rest - quotient * 10000
            rest = quotient
            w32[:, :, h // 4 + j] = digits4_table.take(group)
            if self.strip:
                keep = keep4_table.take(group)
                m32[:, :, h // 4 + j] = keep if kept is None else np.where(kept, 0x01010101, keep)
                kept = keep != 0 if kept is None else kept | (keep != 0)
        b3[:, :, h - 2] = ord("0") + rest
        suffix = e - _EXP_MIN
        if self.strip:
            m3[:, :, h - 1] = kept
            suffix[zero] = _EXP_MAX - _EXP_MIN + 1  # %g writes 0 bare
        w64[:, :, h // 8 + 2] = suffix_table.take(suffix)
        m64[:, :, h // 8 + 2] = suffix_mask.take(suffix)
        return buf, mask, ~ok.all(axis=1)


def _write_rows(fh, row_format: str, rows) -> None:
    """Each row as ``%`` formats it, one line each."""
    for row in rows:
        fh.write((row_format % tuple(row.tolist()) + "\n").encode("ascii"))


def write_table(path, header: dict, row_format: str, table) -> None:
    """Write the header line, then one ``row_format % row`` line per row of `table`."""
    tokens = (f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}" for k, v in header.items())
    table = np.asarray(table)
    formatter = _formatter(row_format, table)
    with open(path, "wb") as fh:
        fh.write(("# " + " ".join(tokens) + "\n").encode("ascii"))
        if formatter is None:
            _write_rows(fh, row_format, table)
            return
        step = max(1, _BLOCK_CELLS // table.shape[1])
        for start in range(0, len(table), step):
            block = table[start : start + step]
            buf, mask, bad = formatter.format(block)
            done = 0  # rows before each undecided one, then that row through %
            for i in [*np.flatnonzero(bad).tolist(), len(block)]:
                fh.write(buf[done:i][mask[done:i]])
                _write_rows(fh, row_format, block[i : i + 1])
                done = i + 1


def read_table(
    path, fields: dict, dtype, delimiter: str = ",", optional: dict | None = None
) -> tuple[dict, np.ndarray]:
    """Read a data file; returns (header, body).

    `fields` maps each required header key to the type its value is
    converted with, and `optional` each key that may be absent; other
    keys are ignored.  The body is a 2-d `dtype` array.  Every malformed
    file raises ValueError naming `path`.
    """
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline()
        if not line.startswith("#"):
            raise ValueError(f"{path}: missing header line")
        raw = {}
        for token in line[1:].split():
            key, sep, value = token.partition("=")
            if not (key and sep):
                raise ValueError(f"{path}: header token {token!r} is not key=value")
            raw[key] = value
        header = {}
        for key, kind in {**fields, **(optional or {})}.items():
            if key not in raw:
                if key in fields:
                    raise ValueError(f"{path}: header missing field {key!r}")
                continue
            try:
                header[key] = kind(raw[key])
            except ValueError as exc:
                raise ValueError(f"{path}: header field {key}={raw[key]!r}: {exc}") from exc
        with warnings.catch_warnings():
            # an empty body is reported below
            warnings.simplefilter("ignore", UserWarning)
            # numpy versions that still parse "2.5" into an integer column
            # truncate it under a DeprecationWarning; make that a ValueError
            warnings.simplefilter("error", DeprecationWarning)
            try:
                body = np.loadtxt(fh, dtype=dtype, delimiter=delimiter, ndmin=2, comments=None)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
    if body.size == 0:
        raise ValueError(f"{path}: no data rows")
    return header, body
