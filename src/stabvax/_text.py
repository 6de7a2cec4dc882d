"""CSV rows whose values are exactly the bytes of '%.12g' % v, all formatted
at once. v in [1e-99, 1e12) is m * 10**(e - 11) for m = round(v * 10**(11 - e))
and e = floor(log10 v). Scaled by the correctly rounded float(10**k), v is
within 2.5e-4 of exact, so m is correctly rounded (as by Python's %, Gay 1990)
unless the scaled v lies within TIE_GAP of a tie. Where log10 rounds across an
integer, v is within 1e-13 relative of a power of ten, and m rounds to 10**11,
or to 10**12 and carries, as for the right e. Each value fills the words
",0.000__" "d.d.d.d." x3 "e-XX____", from tables defined byte by byte; a mask
indexed by exponent class and last nonzero digit zeroes the bytes '%.12g'
omits, and a compress drops the NULs. Python's % formats what the kernel
cannot prove: values near a tie, outside [1e-99, 1e12) once rounded, negative,
-0.0 or not finite."""

from __future__ import annotations

from typing import Sequence

import numpy as np

TIE_GAP = 1e-3  # the scaling error is below 2.5e-4
CHUNK = 32768  # values per pass; 4x as many left the cache, 1.5x slower

_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999
_GROUP = np.full((10000, 8), ord("."), np.uint8)  # "d.d.d.d."
_GROUP[:, ::2] = _DIGITS + ord("0")
_GROUP = _GROUP.view(np.uint64).ravel()
_LAST = np.full((10,) * 4, 3, np.int8)  # position of the last nonzero digit
_LAST[..., 0], _LAST[..., 0, 0], _LAST[..., 0, 0, 0] = 2, 1, 0
_LAST = _LAST.ravel()
_LAST[0] = -9  # 0000 loses every maximum
_E = np.arange(-99, 12)  # the exponents the kernel writes
_EXPONENT = np.zeros((_E.size, 8), np.uint8)  # "e-XX"
_EXPONENT[:, :2] = ord("e"), ord("-")
_EXPONENT[:, 2:4] = _DIGITS[np.abs(_E), 2:] + ord("0")
_EXPONENT = _EXPONENT.view(np.uint64).ravel()
_CLASS = (np.maximum(_E, -5) + 5) * 12  # the first mask row of each class
_SCALE = np.array([float(10**k) for k in range(112)])
_HEAD, _END = np.frombuffer(b",0.000\0\0\r\n\0\0\0\0\0\0", np.uint64)


def _mask_table() -> np.ndarray:
    """0xff for each byte '%.12g' writes, per (class max(e, -5) + 5, last
    nonzero digit z); class 17 is exact zero, written ",0"."""
    e = np.arange(-5, 12)[:, None, None]
    z = np.arange(12)[:, None]
    j = np.arange(12)
    small = (e < 0) & (e > -5)
    keep = np.zeros((18, 12, 40), bool)
    keep[:, :, 0] = keep[17, :, 1] = True
    keep[:17, :, 1:3] = small
    keep[:17, :, 3:6] = small & (np.arange(3) < -e - 1)
    keep[:17, :, 8:32:2] = j <= np.where(e >= 0, np.maximum(e, z), z)
    keep[:17, :, 9:32:2] = (j == np.maximum(e, 0)) & (j < z) & ~small
    keep[:17, :, 32:36] = e == -5
    return (keep * np.uint8(255)).reshape(-1, 40).view(np.uint64)


_MASK = _mask_table()


def split(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """For flat float64 values: the mask row, the mantissa's three 4-digit
    groups, the index of the exponent in _E, and which ones Python formats."""
    fast = (v >= 1e-99) & (v < 999999999999.5)  # rounds to below 1e12
    w = np.where(fast, v, 1.0)
    e = np.floor(np.log10(w)).astype(np.intp)
    s = w * _SCALE.take(11 - e)
    m = np.rint(s)
    zero = v.view(np.uint64) == 0
    slow = ~(fast | zero) | (np.abs(s - m) > 0.5 - TIE_GAP)
    carry = np.flatnonzero(m == 1e12)
    m[carry], e[carry] = 1e11, e[carry] + 1
    hi = np.floor(m * 1e-8)  # exact: the doubles 1e-8 and 1e-4 round up
    rest = m - hi * 1e8
    mid = np.floor(rest * 1e-4)
    hi, mid, lo = (x.astype(np.intp) for x in (hi, mid, rest - mid * 1e4))
    e += 99
    key = _CLASS.take(e) + np.maximum(
        np.maximum(_LAST.take(hi), _LAST.take(mid) + 4), _LAST.take(lo) + 8)
    np.putmask(key, zero, 17 * 12)
    return key, hi, mid, lo, e, slow


def _padded(strings: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of each string, left-aligned in a row of NULs."""
    raw = [s.encode() for s in strings]
    if any(b"\0" in r for r in raw):
        raise ValueError("a row label holds a NUL character")
    width = max(map(len, raw), default=0)
    return np.frombuffer(b"".join(r.ljust(width, b"\0") for r in raw),
                         np.uint8).reshape(len(raw), width)


def csv_rows(outer: Sequence[str], inner: Sequence[str],
             values: np.ndarray) -> bytes:
    """The rows f"{outer[a]},{inner[b]}" + ",%.12g" per value of
    values[a, b] + "\\r\\n", for a, then b, in order; values has the shape
    (len(outer), len(inner), k). Raises ValueError on a NUL in a label."""
    values = np.ascontiguousarray(values, dtype=float)
    n_inner, k = values.shape[1:]
    outer_bytes, inner_bytes = _padded(outer), _padded(inner)
    comma = outer_bytes.shape[1]
    end = comma + 1 + inner_bytes.shape[1]
    head = -(-end // 8)
    step = max(1, CHUNK // max(1, n_inner * k))
    chunks = []
    for a in range(0, len(outer), step):
        block = values[a:a + step]
        flat = block.reshape(-1)
        rows = block.shape[0] * n_inner
        buf = np.zeros((rows, head + 5 * k + 1), np.uint64)
        text = buf.view(np.uint8).reshape(*block.shape[:2], 8 * buf.shape[1])
        text[:, :, :comma] = outer_bytes[a:a + step, None]
        text[:, :, comma] = ord(",")
        text[:, :, comma + 1:end] = inner_bytes
        key, hi, mid, lo, exponent, slow = split(flat)
        slots = buf[:, head:-1].reshape(rows, k, 5)
        slots[..., 0] = _HEAD
        for word, table, index in ((1, _GROUP, hi), (2, _GROUP, mid),
                                   (3, _GROUP, lo), (4, _EXPONENT, exponent)):
            slots[..., word] = table.take(index).reshape(rows, k)
        buf[:, head:-1] &= _MASK.take(key, axis=0).reshape(rows, 5 * k)
        slot_text = buf[:, head:-1].view(np.uint8).reshape(rows, k, 40)
        for i in np.flatnonzero(slow).tolist():
            slot_text[i // k, i % k, 1:] = np.frombuffer(
                (b"%.12g" % flat[i]).ljust(39, b"\0"), np.uint8)
        buf[:, -1] = _END
        out = buf.view(np.uint8).reshape(-1)
        chunks.append(out.compress(out != 0).tobytes())
    return b"".join(chunks)
