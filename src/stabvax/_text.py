"""CSV rows whose values are exactly the bytes of '%.12g' % v, all formatted
at once. v in [1e-99, 1e12) is m * 10**(e - 11) for m = round(v * 10**(11 - e))
and e = floor(log10 v). Scaled by the correctly rounded float(10**k), v is
within 2.5e-4 of exact, so m is correctly rounded (as by Python's %, Gay 1990)
unless the scaled v lies within TIE_GAP of a tie. Where log10 rounds across an
integer, v is within 1e-13 relative of a power of ten, and m rounds to 10**11,
or to 10**12 and carries, as for the right e. A value's text (with its comma,
at most 18 bytes) is built left-aligned in a slot of 18 bytes, 20 when Python
writes a longer one: `_KEYED`, by e and the last nonzero digit, masks the
ASCII digits of m before the point, which shift past "," or ",0.000", and
after it, which shift one byte more, and adds the comma, point, zeros and
"e-XX". One `translate` deletes the NULs after each text. Python's % formats
what the kernel cannot prove: values near a tie, outside [1e-99, 1e12) once
rounded, negative, -0.0 or not finite."""

from __future__ import annotations

from typing import Sequence

import numpy as np

TIE_GAP = 1e-3  # the scaling error is below 2.5e-4
CHUNK = 16384  # values per pass; 8192 or 32768 were no faster

_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999
_ASCII = np.zeros((10001, 8), np.uint8)  # "dddd" in the low half
_ASCII[:, :4] = np.r_[_DIGITS, [[1, 0, 0, 0]]] + ord("0")  # m = 10**12
_ASCII = _ASCII.view(np.uint64).ravel()
_LAST = 3 - (_DIGITS[:, ::-1] != 0).argmax(1)  # the last nonzero digit
_LAST[0] = -9  # 0000 loses every maximum
# per group of m; m = 10**12 carries into the key of the next e
_LAST = (np.r_[_LAST, 12] + np.array([[0], [4], [8]])).astype(np.int8)
_SCALE = np.array([float(10**k) for k in range(110, -1, -1)])  # by e + 99
_ZERO = 111 * 12  # the key of exact zero, written ",0"
_SLOTS = {width: np.dtype([("a", "<u8"), ("b", "<u8"), ("c", c)])
          for width, c in ((18, "<u2"), (20, "<u4"))}


def _keyed_table() -> np.ndarray:
    """Per key 12 * (e + 99) + z, six words: the masks of the digits before
    and of those after the point in the first digit word, both masks of the
    second (low and high half), and the three words of the text's constant
    bytes; the top byte of the last holds the shift in bits of the digits
    before the point."""
    e = np.arange(-99, 12)[:, None, None]
    z = np.arange(12)[:, None]
    d, j = np.arange(12), np.arange(24)
    small = (e < 0) & (e > -5)  # ",0." and -e - 1 zeros
    shift = np.where(small, 2 - e, 1)  # where digit 0 goes
    point = np.maximum(e, 0) + 2  # the point, if a digit follows it
    at = np.where(z > 0, z + 3, 2)  # "e-XX", for e <= -5
    before = 255 * (d < np.where(small, z + 1, point - 1))
    after = 255 * (~small & (d > point - 2) & (d <= z))
    keyed = np.zeros((111, 12, 48), np.uint8)
    keyed[..., :8], keyed[..., 8:16] = before[..., :8], after[..., :8]
    keyed[..., 16:20], keyed[..., 20:24] = before[..., 8:], after[..., 8:]
    keyed[..., 24:] = np.select(
        [j == 0, small & (j == 2), small & (j < shift),
         ~small & (j == point) & (z > point - 2),
         (e > -5) | (j < at) | (j > at + 3), j == at, j == at + 1,
         j == at + 2],
        [ord(","), ord("."), ord("0"), ord("."), 0, ord("e"), ord("-"),
         ord("0") + -e // 10], ord("0") + -e % 10)
    keyed[..., 47] = 8 * shift[..., 0]
    keyed = np.r_[keyed.reshape(_ZERO, 48), np.zeros((1, 48), np.uint8)]
    keyed[_ZERO, 24:26], keyed[_ZERO, 47] = (ord(","), ord("0")), 8
    return np.ascontiguousarray(keyed.view(np.uint64).T)


_KEYED = _keyed_table()


def split(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """For float64 values: the key, the two words of the ASCII digits of m,
    and which values Python formats."""
    w = np.fmin(np.fmax(v, 1e-99), 999999999999.0)  # v where v is fast
    e = (np.log10(w) + 99).astype(np.intp)  # e + 99
    s = w * _SCALE.take(e)
    m = np.rint(s)
    zero = v.view(np.uint64) == 0
    s -= m
    slow = (w != v) | (np.abs(s, out=s) > 0.5 - TIE_GAP)
    slow ^= zero
    lo = m.astype(np.intp)
    mid = lo // 10000
    lo -= mid * 10000
    hi = mid // 10000
    mid -= hi * 10000
    z = np.maximum(_LAST[0].take(hi), _LAST[1].take(mid))
    np.maximum(z, _LAST[2].take(lo), out=z)
    e *= 12
    e += z
    np.putmask(e, zero, _ZERO)
    return e, _ASCII.take(mid) << 32 | _ASCII.take(hi), _ASCII.take(lo), slow


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
    k = values.shape[2]
    ends = _padded(["\r\n" + a for a in outer])  # a row ends the one before
    starts = _padded(["," + b for b in inner])
    heads = np.hstack([ends.repeat(len(starts), 0),
                       np.tile(starts, (len(ends), 1))])
    row_types = {width: np.dtype([("head", np.uint8, heads.shape[1]),
                                  ("slot", slot, k)])
                 for width, slot in _SLOTS.items()}
    before0, after0, masks1, c0, c1, c2 = _KEYED
    step = max(1, CHUNK // max(1, k))  # rows per pass
    raws, chunks = {}, []  # a buffer per slot width, reused by every pass
    for a in range(0, len(heads), step):
        flat = values.reshape(len(heads), k)[a:a + step]
        key, x0, x1, slow = split(flat)
        slow = np.flatnonzero(slow)
        texts = [b",%.12g" % x for x in flat.ravel()[slow].tolist()]
        # "-1.23456789012e-100" and its comma take 20 bytes
        width = 20 if any(len(t) > 18 for t in texts) else 18
        raw = raws.get(width) or raws.setdefault(width, bytearray(
            len(flat) * row_types[width].itemsize))
        buf = np.frombuffer(raw, row_types[width], len(flat))
        buf["head"] = heads[a:a + step]
        slot = buf["slot"]
        # constants | digits before the point << up | digits after it << 16
        last = c2.take(key)
        up = last >> 56
        down = 64 - up
        mask = masks1.take(key)
        a0, a1 = x0 & before0.take(key), x1 & mask
        x0 &= after0.take(key)
        x1 &= mask >> 32
        np.bitwise_or(last, a1 >> down, out=slot["c"], casting="unsafe")
        a1 <<= up
        a1 |= a0 >> down
        a1 |= x1 << 16
        a1 |= x0 >> 48
        np.bitwise_or(a1, c1.take(key), out=slot["b"])
        a0 <<= up
        a0 |= x0 << 16
        np.bitwise_or(a0, c0.take(key), out=slot["a"])
        if texts:
            slot[slow // k, slow % k] = np.frombuffer(b"".join(
                t.ljust(width, b"\0") for t in texts), _SLOTS[width])
        chunks.append((raw if buf.nbytes == len(raw) else raw[:buf.nbytes])
                      .translate(None, b"\0"))
    if chunks:  # the first row has no row before it to end
        chunks[0] = chunks[0][2:]
        chunks.append(b"\r\n")
    return b"".join(chunks)
