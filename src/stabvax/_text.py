"""CSV rows whose values are exactly the bytes of '%.12g' % v, formatted a
block of rows at a time (`Rows.blocks`). v in [1e-99, 1e12) is m * 10**(e - 11) for m = round(v * 10**(11 - e))
and e = floor(log10 v). Scaled by the correctly rounded float(10**k), v is
within 2.5e-4 of exact, so m is correctly rounded (as by Python's %, Gay 1990)
unless the scaled v lies within TIE_GAP of a tie. Where log10 rounds across an
integer, v is within 1e-13 relative of a power of ten, and m rounds to 10**11,
or to 10**12 and carries, as for the right e. A value's text (with its comma,
at most 18 bytes) is built left-aligned in a slot of 18 bytes, 20 when Python
writes a longer one: `_KEYED`, by e and the last nonzero digit, masks the
ASCII digits of m before the point, which shift past "," or ",0.000", and
after it, which shift one byte more, and adds the comma, point, zeros and
"e-XX". One `translate` per block deletes the NULs after each text. Python's
% formats what the kernel cannot prove: values near a tie, outside
[1e-99, 1e12) once rounded, negative, -0.0 or not finite. A block's values,
its work arrays and its row buffer are reused by every block, so that the
memory written stays the same from block to block."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

TIE_GAP = 1e-3  # the scaling error is below 2.5e-4
CHUNK = 16384  # values per block; 8192 or 32768 were no faster

_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # of 0..9999
_ASCII = np.zeros((10001, 8), np.uint8)  # "dddd" in the low half
_ASCII[:, :4] = np.r_[_DIGITS, [[1, 0, 0, 0]]] + ord("0")  # m = 10**12
_ASCII = _ASCII.view(np.uint64).ravel()
_HIGH = _ASCII << 32  # "dddd" in the high half
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


def _scratch(n: int) -> dict:
    """Work arrays for `split` and `Rows` of up to n values, reused by every
    block: arrays made anew for each block cost more in page faults, as the
    allocator hands their memory back between blocks, than in arithmetic."""
    return {"float": np.empty((2, n)), "index": np.empty((5, n), np.intp),
            "word": np.empty((9, n), np.uint64), "bool": np.empty((3, n), bool),
            "last": np.empty((2, n), np.int8)}


def split(v: np.ndarray, work: Optional[dict] = None) -> tuple[np.ndarray, ...]:
    """For float64 values: the key, the two words of the ASCII digits of m,
    and which values Python formats, all flat, in the arrays of `work` (from
    `_scratch`) or in new ones."""
    v = v.reshape(-1)
    n = len(v)
    work = _scratch(n) if work is None else work
    w, s = work["float"][:, :n]
    e, lo, mid, hi, t = work["index"][:, :n]
    x0, x1 = work["word"][:2, :n]
    zero, slow, moved = work["bool"][:, :n]
    z, z1 = work["last"][:, :n]
    np.fmax(v, 1e-99, out=w)
    np.fmin(w, 999999999999.0, out=w)  # v where v is fast
    np.log10(w, out=s)
    s += 99
    np.copyto(e, s, casting="unsafe")  # e + 99
    # every index is in range; take with out= buffers unless it may clip
    _SCALE.take(e, out=s, mode="clip")
    s *= w
    np.equal(v.view(np.uint64), 0, out=zero)
    np.not_equal(w, v, out=moved)
    np.rint(s, out=w)  # m
    np.copyto(lo, w, casting="unsafe")
    s -= w
    np.abs(s, out=s)
    np.greater(s, 0.5 - TIE_GAP, out=slow)
    slow |= moved
    slow ^= zero
    np.floor_divide(lo, 10000, out=mid)
    np.multiply(mid, 10000, out=t)
    lo -= t
    np.floor_divide(mid, 10000, out=hi)
    np.multiply(hi, 10000, out=t)
    mid -= t
    _LAST[0].take(hi, out=z, mode="clip")
    _LAST[1].take(mid, out=z1, mode="clip")
    np.maximum(z, z1, out=z)
    _LAST[2].take(lo, out=z1, mode="clip")
    np.maximum(z, z1, out=z)
    e *= 12
    e += z
    np.putmask(e, zero, _ZERO)
    _HIGH.take(mid, out=x0, mode="clip")
    _ASCII.take(hi, out=x1, mode="clip")
    x0 |= x1
    _ASCII.take(lo, out=x1, mode="clip")
    return e, x0, x1, slow


def _padded(strings: Sequence[str]) -> np.ndarray:
    """The UTF-8 bytes of each string, left-aligned in a row of NULs."""
    raw = [s.encode() for s in strings]
    if any(b"\0" in r for r in raw):
        raise ValueError("a row label holds a NUL character")
    width = max(map(len, raw), default=0)
    return np.frombuffer(b"".join(r.ljust(width, b"\0") for r in raw),
                         np.uint8).reshape(len(raw), width)


class Rows:
    """The rows f"{outer[a]},{inner[b]}" + ",%.12g" per value + "\\r\\n" of
    tables of k values per (outer, inner) pair, for a, then b, in order.
    Their heads, the padded bytes of the labels, are built once, and every
    table of these rows shares them and the block buffers: a `blocks` call
    takes a set of buffers from the idle ones, or makes one, and gives it
    back when it ends, so calls running at once never share a buffer. Raises
    ValueError on a NUL in a label."""

    def __init__(self, outer: Sequence[str], inner: Sequence[str], k: int):
        self.outer, self.inner = _padded(outer), _padded(["," + b for b in inner])
        self.k, self.idle = k, []
        # outer rows per block, the last block's may be fewer
        self.step = max(1, min(len(outer), CHUNK // max(1, len(inner) * k)))
        self.types = {width: np.dtype([
            ("outer", np.uint8, self.outer.shape[1]),
            ("inner", np.uint8, self.inner.shape[1]), ("slot", slot, k),
            ("end", np.uint8, 2)]) for width, slot in _SLOTS.items()}

    def bound(self) -> int:
        """The most bytes the rows can take: each value's text takes at
        most 20."""
        return len(self.outer) * len(self.inner) * self.types[20].itemsize

    def blocks(self, fields: Sequence[np.ndarray]):
        """The bytes of the rows of k fields, each of shape (len(outer),
        len(inner)), a block of `step` outer rows at a time: the block's
        values are stacked into one buffer and formatted in one pass, each
        text left-aligned in a slot of its row's buffer, and one `translate`
        deletes the NULs."""
        try:
            buffers = self.idle.pop()
        except IndexError:
            values = np.empty((self.step, len(self.inner), self.k))
            buffers = {"values": values, "work": _scratch(values.size)}
        try:
            yield from self._format(fields, buffers)
        finally:
            self.idle.append(buffers)

    def _format(self, fields, buffers):
        before0, after0, masks1, c0, c1, c2 = _KEYED
        k, work = self.k, buffers["work"]
        for a in range(0, len(self.outer), self.step):
            values = buffers["values"][:len(self.outer) - a]
            for j, field in enumerate(fields):
                values[..., j] = field[a:a + self.step]
            key, x0, x1, slow = split(values, work)
            slow = slow.nonzero()[0]
            texts = [b",%.12g" % x for x in values.ravel()[slow].tolist()]
            # "-1.23456789012e-100" and its comma take 20 bytes
            width = 20 if any(len(t) > 18 for t in texts) else 18
            if width not in buffers:  # the inner labels and ends stay put
                raw = bytearray(buffers["values"].shape[0] * len(self.inner)
                                * self.types[width].itemsize)
                buf = np.frombuffer(raw, self.types[width]).reshape(
                    -1, len(self.inner))
                buf["inner"], buf["end"] = self.inner, tuple(b"\r\n")
                buffers[width] = raw, buf
            raw, buf = buffers[width]
            buf = buf[:len(values)]
            buf["outer"] = self.outer[a:a + self.step, None]
            slot = buf["slot"]
            last, up, down, mask, a0, a1, t = work["word"][2:, :len(key)]
            # constants | digits before the point << up | digits after it << 16
            c2.take(key, out=last, mode="clip")
            np.right_shift(last, 56, out=up)
            np.subtract(64, up, out=down)
            masks1.take(key, out=mask, mode="clip")
            before0.take(key, out=a0, mode="clip")
            a0 &= x0
            np.bitwise_and(x1, mask, out=a1)
            after0.take(key, out=t, mode="clip")
            x0 &= t
            mask >>= 32
            x1 &= mask
            np.right_shift(a1, down, out=t)
            t |= last
            slot["c"] = t.reshape(values.shape)
            a1 <<= up
            np.right_shift(a0, down, out=t)
            a1 |= t
            x1 <<= 16
            a1 |= x1
            np.right_shift(x0, 48, out=t)
            a1 |= t
            c1.take(key, out=t, mode="clip")
            a1 |= t
            slot["b"] = a1.reshape(values.shape)
            a0 <<= up
            x0 <<= 16
            a0 |= x0
            c0.take(key, out=t, mode="clip")
            a0 |= t
            slot["a"] = a0.reshape(values.shape)
            if texts:
                slot.reshape(-1, k).view(f"V{width}")[slow // k, slow % k] = (
                    np.frombuffer(b"".join(text.ljust(width, b"\0")
                                           for text in texts), f"V{width}"))
            yield (raw if buf.nbytes == len(raw) else raw[:buf.nbytes]
                   ).translate(None, b"\0")


def csv_rows(outer: Sequence[str], inner: Sequence[str],
             values: np.ndarray) -> bytes:
    """The rows of `Rows` for values of the shape (len(outer), len(inner),
    k), joined."""
    values = np.asarray(values, dtype=float)
    return b"".join(Rows(outer, inner, values.shape[2]).blocks(
        np.moveaxis(values, 2, 0)))
