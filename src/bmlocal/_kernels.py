"""The hot numeric kernel: truncated products of series mod p.

``poly_mul_mod`` is exact for every p below 2^62, at every length.  It
multiplies by Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", 2009): each
coefficient array is packed into one Python integer, one coefficient per
fixed-width slot, the two integers are multiplied, and the product's
slots are read back as the coefficients of the product polynomial.  A
slot holds any coefficient of the unreduced product, which is at most
min(len(a), len(b)) * (p-1)^2, so no slot carries into the next.  The
multiplication runs in CPython's big-integer code (Karatsuba), so the
cost grows like (n log(n p^2))^1.58 and never overflows; packing and
unpacking are numpy byte operations whenever a slot fits in 8 bytes.
Slot widths are rounded up to 1, 2, 4 or 8 bytes, or beyond that to
whole 8-byte words, so that every slot is one numpy integer or a row of
them.

Inputs are int64 arrays (or sequences) with entries already reduced
mod p, and p < 2^62.
"""

import numpy as np

__all__ = ["poly_mul_mod"]


def _pack(a, width: int) -> int:
    """The integer whose width-byte little-endian slots hold a's entries."""
    unit = min(width, 8)
    slots = np.zeros((a.shape[0], width // unit), dtype=f"<u{unit}")
    slots[:, 0] = a
    return int.from_bytes(slots.tobytes(), "little")


def poly_mul_mod(a, b, p, n):
    """First n coefficients of the product of coefficient arrays a, b mod p."""
    a = np.ascontiguousarray(a[:n], dtype=np.int64)
    b = np.ascontiguousarray(b[:n], dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return out
    bound = min(a.shape[0], b.shape[0]) * (p - 1) ** 2
    nbytes = -(-bound.bit_length() // 8)
    # slots are 1, 2, 4 or 8 bytes (one numpy integer each), or whole words
    width = 1 << (nbytes - 1).bit_length() if nbytes <= 8 else -(-nbytes // 8) * 8
    top = min(n, a.shape[0] + b.shape[0] - 1)
    prod = _pack(a, width) * _pack(b, width)
    raw = (prod & ((1 << (8 * width * top)) - 1)).to_bytes(width * top, "little")
    if width <= 8:
        out[:top] = np.frombuffer(raw, dtype=f"<u{width}") % p
    else:
        out[:top] = [int.from_bytes(raw[i * width:(i + 1) * width], "little") % p
                     for i in range(top)]
    return out

