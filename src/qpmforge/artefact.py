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
  so that the gates computed from it read back bit-identical.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["write_table", "read_table"]


def write_table(path, header: dict, rows) -> None:
    """Write the header line, then each already formatted row on its own line."""
    tokens = (f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}" for k, v in header.items())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# " + " ".join(tokens) + "\n")
        for row in rows:
            fh.write(row + "\n")


def read_table(path, fields: dict, dtype, delimiter: str = ",") -> tuple[dict, np.ndarray]:
    """Read a data file; returns (header, body).

    `fields` maps each required header key to the type its value is
    converted with; other keys are ignored.  The body is a 2-d `dtype`
    array.  Every malformed file raises ValueError naming `path`.
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
        for key, kind in fields.items():
            if key not in raw:
                raise ValueError(f"{path}: header missing field {key!r}")
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
