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
2-d array, formatted in `write_table` and nowhere else.  A table of at
least `SPLIT_CELLS` cells is formatted across processes where the
platform can fork: one contiguous block of rows per available CPU, each
block after the first written by a forked child to a part file beside
the output, then appended in order.  The bytes are the same either way.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import warnings
from typing import NoReturn

import numpy as np

__all__ = ["write_table", "read_table"]

# Tables of at least this many cells are split across processes.  From an
# 80 MB process on two cores, a fork, reap and empty append cost 3-5 ms,
# and `%.12e` tables wrote in-process / split in 0.15 / 0.09 s at 250k
# cells and 0.57 / 0.36 s at 10^6.  The split is kept to the JSA and JSI
# tables (1-2 x 10^6 cells); the 250k-cell count files stay in-process,
# so the readout stages fork nothing.
SPLIT_CELLS = 1_000_000


def _workers() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _write_rows(fh, row_format: str, table) -> None:
    for row in table:
        fh.write(row_format % tuple(row.tolist()) + "\n")


def _write_part(part: str, row_format: str, table) -> NoReturn:
    """Body of a forked child: write `table` to `part` and exit.

    The child leaves only through os._exit, so no atexit hook, buffered
    stream or `finally` of the parent's stack runs a second time.  It
    runs Python formatting only and calls no BLAS routine, so it never
    waits on a lock held by one of the parent's threads, which a forked
    child does not have.
    """
    code = 1
    try:
        with open(part, "w", encoding="ascii") as fh:
            _write_rows(fh, row_format, table)
        code = 0
    finally:
        os._exit(code)


def write_table(path, header: dict, row_format: str, table) -> None:
    """Write the header line, then one ``row_format % row`` line per row of `table`."""
    tokens = (f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}" for k, v in header.items())
    n_blocks = 1
    if np.size(table) >= SPLIT_CELLS and hasattr(os, "fork"):
        n_blocks = min(_workers(), len(table))
    blocks = np.array_split(table, n_blocks)
    parts, pids = [], []
    try:
        for i, block in enumerate(blocks[1:], 1):
            parts.append(f"{os.fspath(path)}.{i}.part")
            pid = os.fork()
            if pid == 0:
                _write_part(parts[-1], row_format, block)
            pids.append(pid)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# " + " ".join(tokens) + "\n")
            _write_rows(fh, row_format, blocks[0])
        failed = []
        while pids:
            status = os.waitpid(pids[0], 0)[1]
            pids.pop(0)
            if status:
                failed.append(os.waitstatus_to_exitcode(status))
        if failed:
            raise OSError(f"{path}: {len(failed)} row writer process(es) failed, exit {failed}")
        with open(path, "ab") as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(part)


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
