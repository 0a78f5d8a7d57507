"""The shared ``# key=value`` header + table format of every data file."""

import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpmforge import artefact
from qpmforge.artefact import write_table
from qpmforge.biphoton import (
    FrequencyGrid,
    load_jsa,
    load_jsi,
    save_jsa,
    save_jsi,
)
from qpmforge.crystal import DomainConfig, load_domains, save_domains
from qpmforge.interference import HomCurve, load_curve, save_curve
from qpmforge.measurement import CountMatrix, SpectrometerSpec, load_counts, save_counts

from oracles import DenseAmplitude, percent_rows

# one well-formed file per loader: header line, body rows
VALID = {
    load_jsa: (
        "# ns=2 ni=2 dnu_s_hz=1e9 dnu_i_hz=1e9 nu0_hz=1.9e14",
        ["(1+0j),0j", "0j,(1-2j)"],
    ),
    load_jsi: (
        "# ns=2 ni=2 dnu_s_hz=1e9 dnu_i_hz=1e9 nu0_hz=1.9e14",
        ["1.0e+00,0.0e+00", "0.0e+00,5.0e+00"],
    ),
    load_domains: ("# total_length_m=2e-05", ["1e-05\t+1", "1e-05\t-1"]),
    load_curve: ("# kind=two_photon", ["0.0,0.5", "1.0e-12,0.6"]),
    load_counts: (
        "# nt=2 dt_ps=25 t0_ns=-0.025 disp_ns_per_nm=0.4 ref_wavelength_m=1.5557e-06"
        " nu0_hz=192705828887317.59",
        ["1,2", "3,4"],
    ),
}


def _delimiter(row):
    return "\t" if "\t" in row else ","


def _first(row):
    return row.split(_delimiter(row))[0]


# name -> (lines from the valid header and rows, pattern the message must match)
MALFORMED = {
    "no header": (lambda h, rows: rows, "header"),
    "text first line": (lambda h, rows: ["no header here", *rows], "header"),
    "header below a blank line": (lambda h, rows: ["", h, *rows], "header"),
    "spaces around =": (lambda h, rows: [h.replace("=", " = "), *rows], "key=value"),
    "missing key": (None, None),  # each header key dropped in turn, below
    "non-numeric token": (
        lambda h, rows: [h, "abc" + rows[0][len(_first(rows[0])):], *rows[1:]],
        "abc",
    ),
    "ragged row": (lambda h, rows: [h, rows[0], _first(rows[1]), *rows[2:]], ""),
    "wrong column count": (
        lambda h, rows: [h, *(r + _delimiter(r) + _first(r) for r in rows)],
        "",
    ),
    "empty body": (lambda h, rows: [h], "no data rows"),
}
# the JSA and JSI grid is one axis shared by both photons; a file whose
# two axes differ is rejected even when its body fits the header
GRID_MALFORMED = {
    "ni differs from ns": (lambda h, rows: [h.replace("ni=2", "ni=3"), *rows, rows[-1]], "differ"),
    "dnu_i_hz differs from dnu_s_hz": (
        lambda h, rows: [h.replace("dnu_i_hz=1e9", "dnu_i_hz=2e9"), *rows],
        "differ",
    ),
    # a header the axis itself cannot hold
    "one sample": (
        lambda h, rows: [h.replace("ns=2 ni=2", "ns=1 ni=1"), _first(rows[0])],
        "at least two samples",
    ),
    "negative step": (
        lambda h, rows: [h.replace("=1e9", "=-1e9"), *rows],
        "strictly increasing",
    ),
}

CASES = [(loader, case) for loader in VALID for case in MALFORMED] + [
    (loader, case) for loader in (load_jsa, load_jsi) for case in GRID_MALFORMED
]


@pytest.mark.parametrize(
    "loader, case", CASES, ids=[f"{loader.__name__}-{case}" for loader, case in CASES]
)
def test_malformed_input_rejected(tmp_path, loader, case):
    header, rows = VALID[loader]
    build, pattern = {**MALFORMED, **GRID_MALFORMED}[case]
    if build is None:
        tokens = header[2:].split()
        variants = [
            (["# " + " ".join(t for t in tokens if t != drop), *rows],
             f"missing field '{drop.partition('=')[0]}'")
            for drop in tokens
        ]
    else:
        variants = [(build(header, rows), pattern)]
    path = tmp_path / "bad.txt"
    for lines, pattern in variants:
        path.write_text("".join(line + "\n" for line in lines))
        # Python ignores DeprecationWarning outside __main__, so the
        # rejection must not depend on the warning filters
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match=pattern) as err:
                loader(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("loader", list(VALID), ids=lambda f: f.__name__)
def test_valid_fixture_loads(tmp_path, loader):
    header, rows = VALID[loader]
    path = tmp_path / "good.txt"
    path.write_text("".join(line + "\n" for line in [header, *rows]))
    loader(path)


finite = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
scale = st.floats(min_value=1e-3, max_value=1e3)
shape = st.integers(min_value=2, max_value=5)
# one file path serves every example, each overwriting the last
SETTINGS = settings(
    deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def amplitudes(draw):
    n = draw(shape)
    parts = st.lists(finite, min_size=n * n * 2, max_size=n * n * 2)
    flat = np.array(draw(parts))
    grid = FrequencyGrid(nu=2 * np.pi * 1e9 * draw(scale) * (np.arange(n) - (n - 1) / 2))
    values = (flat[::2] + 1j * flat[1::2]).reshape(n, n)
    return DenseAmplitude(grid=grid, values=values, center_frequency_hz=1.9e14 * draw(scale))


def _assert_same_grid(got, want):
    np.testing.assert_allclose(got.nu, want.nu, rtol=1e-11)


@SETTINGS
@given(jsa=amplitudes())
def test_jsa_and_jsi_roundtrip(tmp_path, jsa):
    path = tmp_path / "jsa.csv"
    save_jsa(jsa, path)
    grid, values, center = load_jsa(path)
    # 17 significant digits are exact
    np.testing.assert_array_equal(values, jsa.values)
    np.testing.assert_array_equal(np.signbit(values.view(float)), np.signbit(jsa.values.view(float)))
    _assert_same_grid(grid, jsa.grid)
    nu0 = jsa.center_frequency_hz
    assert center == pytest.approx(nu0, rel=1e-11)

    path = tmp_path / "jsi.csv"
    save_jsi(jsa, path)
    grid, jsi, center = load_jsi(path)
    np.testing.assert_allclose(jsi, np.abs(jsa.values) ** 2, rtol=1e-11, atol=0)
    _assert_same_grid(grid, jsa.grid)
    assert center == pytest.approx(nu0, rel=1e-11)


@SETTINGS
@given(
    widths=st.lists(st.floats(min_value=1e-9, max_value=1e-3), min_size=1, max_size=50),
    signs=st.lists(st.sampled_from([-1, 1]), min_size=50, max_size=50),
)
def test_domains_roundtrip(tmp_path, widths, signs):
    widths = np.array(widths)
    config = DomainConfig(
        widths=widths, orientations=signs[: widths.size], total_length=float(widths.sum())
    )
    path = tmp_path / "domains.tsv"
    save_domains(config, path)
    back = load_domains(path)
    np.testing.assert_array_equal(back.widths, config.widths)
    np.testing.assert_array_equal(back.orientations, config.orientations)
    assert back.orientations.dtype.kind == "i"
    assert back.total_length == config.total_length


@SETTINGS
@given(
    kind=st.sampled_from(["two_photon", "heralded"]),
    points=st.lists(st.tuples(finite, finite), min_size=1, max_size=20),
)
def test_curve_roundtrip(tmp_path, kind, points):
    delays, values = np.array(points).T
    curve = HomCurve(delays=delays, values=values, kind=kind)
    path = tmp_path / "curve.tsv"
    save_curve(curve, path)
    back = load_curve(path)
    assert back.kind == kind
    np.testing.assert_allclose(back.delays, delays, rtol=1e-12, atol=0)
    np.testing.assert_allclose(back.values, values, rtol=1e-12, atol=0)


@SETTINGS
@given(
    nt=st.integers(min_value=1, max_value=6),
    data=st.data(),
    calibration=st.tuples(scale, scale, scale, scale, scale),
)
def test_counts_roundtrip(tmp_path, nt, data, calibration):
    ints = st.integers(min_value=0, max_value=2**62)
    values = np.array(data.draw(st.lists(ints, min_size=nt * nt, max_size=nt * nt)))
    a, b, c, d, e = calibration
    spec = SpectrometerSpec(
        dispersion_ps_per_nm_km=20.0 * b,
        fiber_length_km=20.0 * c,
        time_bin=25e-12 * a,
        window=nt * 25e-12 * a,
        reference_wavelength=1555.7e-9 * d,
    )
    counts = CountMatrix(
        values=values.reshape(nt, nt), spec=spec, center_frequency_hz=1.9e14 * e
    )
    path = tmp_path / "counts.csv"
    save_counts(counts, path)
    back = load_counts(path)
    np.testing.assert_array_equal(back.values, counts.values)
    for name in ("time_bin", "window", "time_rate", "reference_wavelength"):
        assert getattr(back.spec, name) == pytest.approx(getattr(spec, name), rel=1e-11)
    # the band center places every gate, so it reads back bit-identical
    assert back.center_frequency_hz == counts.center_frequency_hz


@SETTINGS
@given(jsa=amplitudes(), x=scale)
def test_header_lines_match_format(tmp_path, jsa, x):
    # the f-strings each writer used before the shared writer are the oracle
    n_i, n_s = jsa.grid.shape
    nu0 = jsa.center_frequency_hz
    grid_header = (
        f"# ns={n_s} ni={n_i}"
        f" dnu_s_hz={jsa.grid.d_nu / (2.0 * np.pi):.12g}"
        f" dnu_i_hz={jsa.grid.d_nu / (2.0 * np.pi):.12g}"
        f" nu0_hz={nu0:.12g}"
    )
    widths = [1e-5 * x, 2e-5 * x]
    domains = DomainConfig(widths=widths, orientations=[1, -1], total_length=sum(widths))
    curve = HomCurve(delays=[-x, x], values=[0.5, 0.5], kind="heralded")
    spec = SpectrometerSpec(
        dispersion_ps_per_nm_km=20.0 / x,
        fiber_length_km=20.0,
        time_bin=25e-12 * x,
        window=75e-12 * x,
        reference_wavelength=1555.7e-9 * x,
    )
    counts = CountMatrix(
        values=np.zeros((3, 3), dtype=int), spec=spec, center_frequency_hz=1.9e14 * x
    )
    cases = [
        (save_jsa, jsa, grid_header),
        (save_jsi, jsa, grid_header),
        (save_domains, domains, f"# total_length_m={domains.total_length:.17g}"),
        (save_curve, curve, "# kind=heralded"),
        (
            save_counts,
            counts,
            f"# nt=3"
            f" dt_ps={spec.time_bin * 1e12:.12g}"
            f" t0_ns={-spec.window / 2.0 * 1e9:.12g}"
            f" disp_ns_per_nm={spec.time_rate:.12g}"
            f" ref_wavelength_m={spec.reference_wavelength:.12g}"
            f" nu0_hz={counts.center_frequency_hz:.17g}",
        ),
    ]
    path = tmp_path / "out.txt"
    for save, obj, want in cases:
        save(obj, path)
        assert path.read_text().split("\n", 1)[0] == want, save.__name__


# --- row formatting ---------------------------------------------------------

# kind -> (row format, table of n rows drawn from a generator)
TABLES = {
    "float": ("%.17g,%.12e,%.12g", lambda rng, n: rng.standard_normal((n, 3)) * 1e3),
    # a complex table views as interleaved real and imaginary parts
    "complex": (
        "%.17g%+.17gj,%.17g%+.17gj",
        lambda rng, n: (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))).view(float),
    ),
    "int64": ("%d,%d,%d,%d", lambda rng, n: rng.integers(-(2**62), 2**62, size=(n, 4))),
    # counts of one to ten digits
    "counts": ("%d,%d,%d,%d,%d", lambda rng, n: rng.poisson([0.3, 30.0, 3e3, 3e5, 3e9], (n, 5))),
    "uint64": (
        "%d\t%d",
        lambda rng, n: rng.integers(0, 2**64 - 1, size=(n, 2), dtype=np.uint64, endpoint=True),
    ),
    "intensity": ("%.12e,%.12e,%.12e", lambda rng, n: rng.standard_normal((n, 3)) ** 2 * 1e-27),
}


def _written(path) -> tuple[bytes, bytes]:
    """(header line, body) of a written file."""
    head, _, body = path.read_bytes().partition(b"\n")
    return head, body


@pytest.mark.parametrize("kind", list(TABLES))
@pytest.mark.parametrize("n_rows", [1, 2, 3, 1023])
def test_split_table_bytes_match_in_process(tmp_path, monkeypatch, kind, n_rows):
    # a table written in blocks of one to three rows is the bytes of `%`
    # applied to each row in this process
    row_format, make = TABLES[kind]
    table = make(np.random.default_rng(n_rows), n_rows)
    header = {"n": n_rows, "x": 0.5, "s": "%.17g" % 0.1}
    path = tmp_path / "split.txt"
    for rows_per_block in (1, 2, 3):
        monkeypatch.setattr(artefact, "_BLOCK_CELLS", rows_per_block * table.shape[1])
        write_table(path, header, row_format, table)
        assert _written(path) == (b"# n=%d x=0.5 s=0.10000000000000001" % n_rows,
                                  percent_rows(row_format, table))


def _from_power_of_ten(args) -> float:
    """10**k moved `steps` ulps: log10 is one off here, and %.17g can
    carry to a bare 1e-xx."""
    k, steps = args
    x = float(f"1e{k}")
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.inf if steps > 0 else 0.0))
    return x


DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # the whole finite range
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e290, -1e290]),
    st.tuples(st.integers(-323, 308), st.integers(-3, 3)).map(_from_power_of_ten),
    # carries of %.12e, and values at or beside a decimal tie
    st.tuples(
        st.sampled_from([9.9999999999995, 9.99999999999995, 9.999999999999999, 2.5, 1.25]),
        st.integers(-315, 300),
    ).map(lambda t: t[0] * 10.0 ** t[1]),
    st.integers(10**12, 10**13).map(lambda m: float(10 * m + 5)),
    st.floats(min_value=1e-5, max_value=1e18),  # %g's fixed notation
)
ROW_FORMATS = [
    "%.17g%+.17gj",
    "%.17g%+.17gj,%.17g%+.17gj,%.17g%+.17gj",
    "%.12e",
    "%.12e,%.12e,%.12e",
    "%.17g,%.12e\t%+.17g",  # mixed digits: % formats it
    "(%.12e; %+.17g)",
    "%d",
    "%d, %d, %d",
    "%d -- %d",
    "%d,%d;%d",  # two literals: % formats it
    "%d ----- %d",  # a literal longer than four characters: the same
    "[%d,%d]",  # text around the row: the same
    *(row_format for row_format, _ in TABLES.values()),
]
INT_DTYPES = [np.int64, np.int32, np.int16, np.int8, np.uint64, np.uint32, np.uint16, np.uint8]


def _ints(dtype):
    """Values of an integer dtype: one to four digits, its whole range,
    and zero, the edges of the digit groups, -1 and the dtype's extremes."""
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    edges = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**16, -1, lo, hi]
    return st.one_of(
        st.integers(0, min(hi, 9999)),
        st.integers(lo, hi),
        st.sampled_from([v for v in edges if lo <= v <= hi]),
    )


@st.composite
def formatted_tables(draw):
    row_format = draw(st.sampled_from(ROW_FORMATS))
    n_cols = row_format.count("%")
    n_rows = draw(st.integers(min_value=1, max_value=200))
    if "%d" in row_format:
        dtype = draw(st.sampled_from(INT_DTYPES))
        cells = _ints(dtype)
    else:
        dtype, cells = float, DOUBLES
    flat = draw(st.lists(cells, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    return row_format, np.array(flat, dtype=dtype).reshape(n_rows, n_cols)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=formatted_tables(), block_cells=st.sampled_from([1, 7, 16384]))
def test_table_bytes_match_percent_oracle(tmp_path, monkeypatch, case, block_cells):
    row_format, table = case
    monkeypatch.setattr(artefact, "_BLOCK_CELLS", block_cells)
    path = tmp_path / "table.txt"
    write_table(path, {"k": 1}, row_format, table)
    assert _written(path) == (b"# k=1", percent_rows(row_format, table))


def test_large_table_starts_no_process_or_thread(tmp_path, monkeypatch):
    # a 1024^2 JSA, as its writer views it, and a 1024^2 count matrix are
    # formatted in this process on this thread
    def refuse(*args, **kwargs):
        raise AssertionError("the writer started a process or a thread")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    rng = np.random.default_rng(0)
    cases = [
        (",".join(["%.17g%+.17gj"] * 1024), rng.standard_normal((1024, 2048)) * 1e-14),
        (",".join(["%d"] * 1024), rng.poisson(rng.uniform(0.0, 2e4, (1024, 1024)))),
    ]
    path = tmp_path / "table.csv"
    for row_format, table in cases:
        write_table(path, {"ns": 1024}, row_format, table)
        with open(path, "rb") as fh:
            assert fh.readline() == b"# ns=1024\n"
            first = fh.readline()
            for count, last in enumerate(fh, 2):
                pass
        assert count == 1024
        assert first + last == percent_rows(row_format, table[[0, -1]])
