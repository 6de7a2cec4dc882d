"""The CSV kernel writes exactly the bytes of Python's '%.12g' for every
double: a seeded property test over the ranges, rounding boundaries and
special values the kernel treats differently."""

import numpy as np
import pytest

from stabvax import _text

WIDTH = 10  # values per row


def reference(outer, inner, values) -> bytes:
    return b"".join(
        f"{a},{b}".encode() + b"".join(b",%.12g" % x for x in row) + b"\r\n"
        for a, day in zip(outer, values.tolist())
        for b, row in zip(inner, day))


def neighbours(points, steps) -> np.ndarray:
    """The doubles within steps ulps of each point, on both sides."""
    out = []
    for p in points:
        down = up = p
        for _ in range(steps):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
            out += [down, up]
        out.append(p)
    return np.array(out)


def doubles(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 10**7, 20000).astype(float)
    # 13-digit decimals ending in 5 lie next to a tie at 12 digits
    ties = [float(f"{n}5e{p}") for n, p in zip(
        rng.integers(10**11, 10**12, 20000), rng.integers(-110, 0, 20000))]
    shorts = rng.integers(0, 10**6, 20000) / 10.0 ** rng.integers(1, 6, 20000)
    # log10 rounds across an integer next to some powers of ten
    bounds = neighbours([10.0**k for k in range(-99, 13)] + [
        9.999999999995e-5, 9.9999999999995, 999999999999.5], steps=30)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585e-308,
                1e-100, 1e300]
    values = np.concatenate([
        10 ** rng.uniform(-110, 13, 210000), ints, ints / 8, ties, shorts,
        bounds, -10 ** rng.uniform(-110, 13, 10000),
        rng.integers(1, 2**52, 1000) * 5e-324, specials])
    rng.shuffle(values)
    return values[:values.size // WIDTH * WIDTH]


def test_matches_python_on_doubles():
    values = doubles(0)
    assert values.size >= 300000
    grid = values.reshape(-1, 1, WIDTH)
    outer = [str(i) for i in range(grid.shape[0])]
    assert _text.csv_rows(outer, ["x"], grid) == reference(outer, ["x"], grid)


def test_rows_and_labels():
    values = np.arange(24.0).reshape(2, 3, 4) / 7
    outer, inner = ["0", "1e+06"], ["a", "locé", ""]
    assert _text.csv_rows(outer, inner, values) == reference(outer, inner,
                                                             values)
    assert _text.csv_rows([], inner, values[:0]) == b""
    with pytest.raises(ValueError, match="NUL"):
        _text.csv_rows(outer, ["a", "b\0", "c"], values)


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_rows_do_not_depend_on_chunk(monkeypatch, chunk):
    # 1 and 7 values give one row of k = 9 per pass; 40 is less than one
    # outer row of 6 x 9 values
    values = doubles(1)[:4 * 6 * 9].reshape(4, 6, 9)
    outer, inner = ["0", "0.25", "1e+06", "3"], ["a", "", "locé", "b", "cc",
                                                 "d"]
    monkeypatch.setattr(_text, "CHUNK", chunk)
    assert _text.csv_rows(outer, inner, values) == reference(outer, inner,
                                                             values)
