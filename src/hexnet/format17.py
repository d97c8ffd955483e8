"""format(x, ".17g") for a whole float64 array at once, in numpy.

format_rows(values) returns the CSV rows of a 2-D array: each value as
format(x, ".17g") renders it, "," between the values of a row and "\n"
after each row. Its bytes equal those of the per-value format for every
float64, the correctly rounded digits of David Gay's dtoa that CPython
uses. hexnet.output writes timeseries.csv with it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

# For x in [1e-274, 1e16] with e = floor(log10 x), the 17 significant digits
# are those of the integer D = round(x·10^(16-e)) in [1e16, 1e17). x·10^p is
# formed as a double-double: Dekker's TwoProduct (Numer. Math. 18, 1971)
# gives x·hi exactly, where hi + lo is 10^p split into two float64s, and x·lo
# is added. The sum is within 1e-14 of x·10^p, so rounding it gives D exactly
# unless its fraction lies within 1e-9 of one half. Every other value is
# formatted by format(x, ".17g") itself and spliced into the same rows: a
# value outside [1e-274, 1e16] other than +0.0 (so every negative, -0.0 and
# non-finite value), a near tie, and a value whose x·10^p is below 1e16 or
# whose D reaches 1e17 (log10 put e one too high or too low, or the rounding
# carried). A float64 in range that is not a power of ten lies at least
# 0.0108 units of D's last digit from one, so the sign of x·10^p - 1e16 is
# never misread.


def _split(a):
    """Dekker's split of float64 a into halves of at most 26 bits: hi + lo == a."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# A value's source row holds the 17 digits of D from byte _DIGIT (its last 16
# are four aligned uint32s), the three digits of |e| ending at byte 23, then
# "0.e-" and the separator. A spliced value's text, at most 24 bytes,
# overwrites bytes 0..23.
_ROW, _WIDTH = 32, 25
_DIGIT, _EXP, _ZERO, _DOT, _E, _MINUS, _SEP = 3, 21, 24, 25, 26, 27, 28
_ALWAYS, _NEVER = -1, 127
_SCI2, _SCI3, _ZERO_CAT, _SPLICED = 21, 22, 23, 24


def _templates():
    """Per category, the source byte and the rank of each of _WIDTH output
    slots. A slot is kept when its rank is below the value's limit: 17 minus
    D's trailing zeros, or the length of a spliced value's text.

    Categories: 0..20 fixed notation for e = -4..16; 21 and 22 scientific
    with a 2- and a 3-digit exponent; 23 zero; 24 spliced.
    """
    cats = []
    for e in range(-4, 17):
        if e >= 0:  # integer digits, then "." and the fraction
            slots = [(_DIGIT + k, _ALWAYS) for k in range(e + 1)] + [(_DOT, e + 1)]
            slots += [(_DIGIT + k, k) for k in range(e + 1, 17)]
        else:  # "0.", -e-1 zeros, then all 17 digits
            slots = [(_ZERO, _ALWAYS), (_DOT, _ALWAYS)] + [(_ZERO, _ALWAYS)] * (-e - 1)
            slots += [(_DIGIT + k, k) for k in range(17)]
        cats.append(slots)
    for exp_digits in (2, 3):
        slots = [(_DIGIT, _ALWAYS), (_DOT, 1)] + [(_DIGIT + k, k) for k in range(1, 17)]
        slots += [(_E, _ALWAYS), (_MINUS, _ALWAYS)]
        slots += [(_EXP + 3 - exp_digits + k, _ALWAYS) for k in range(exp_digits)]
        cats.append(slots)
    cats.append([(_ZERO, _ALWAYS)])
    cats.append([(k, k) for k in range(_WIDTH - 1)])
    # intp, take()'s index type: int32 indices would be cast to a copy twice their size
    index = np.zeros((len(cats), _WIDTH), np.intp)
    rank = np.full((len(cats), _WIDTH), _NEVER, np.int8)
    for c, slots in enumerate(cats):
        slots = slots + [(_SEP, _ALWAYS)]
        index[c, :len(slots)] = [i for i, _ in slots]
        rank[c, :len(slots)] = [r for _, r in slots]
    return index, rank


def _powers_of_ten():
    """10^p for p = 0..291 as hi + lo, each rounded to nearest, and Dekker's
    split of hi. p = 16 - e reaches 291 where log10 rounds e down below
    1e-274."""
    p = np.arange(292)
    five = [5 ** int(k) for k in p]  # 10^p = 5^p·2^p
    hi = np.ldexp([float(f) for f in five], p)
    lo = np.ldexp([float(f - int(float(f))) for f in five], p)
    return hi, lo, *_split(hi)


def _digits():
    """0..9999 as four ASCII digits in one native uint32 each, and the
    number of trailing zeros among those four."""
    ascii_digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(*[ascii_digit] * 4, indexing="ij"), axis=-1).reshape(10_000, 4)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)
    zeros = trailing.sum(axis=1, dtype=np.int8)
    return digits.view(np.uint32).ravel(), zeros


_TEN_HI, _TEN_LO, _TEN_HH, _TEN_HL = _powers_of_ten()
_DIGITS4, _ZEROS4 = _digits()
_INDEX, _RANK = _templates()


def format_rows(values: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float64 array: format(x, ".17g") of each
    value, "," between the values of a row and "\n" after each row."""
    rows, cols = values.shape
    x = values.ravel()
    n = x.size
    fast = (x >= 1e-274) & (x <= 1e16)
    zero = (x == 0.0) & ~np.signbit(x)
    xs = np.where(fast, x, 1.0)
    e = np.floor(np.log10(xs)).astype(np.int64)
    p = np.clip(16 - e, 0, _TEN_HI.size - 1)
    prod = xs * _TEN_HI[p]
    xh, xl = _split(xs)
    hh, hl = _TEN_HH[p], _TEN_HL[p]
    rest = ((xh * hh - prod) + xh * hl + xl * hh) + xl * hl  # xs·hi - prod, exactly
    rest += xs * _TEN_LO[p]  # x·10^p - prod, to 1e-14
    D = prod.astype(np.int64) + np.rint(rest).astype(np.int64)
    spliced = (~(fast | zero) | ((prod - 1e16) + rest < 0) | (D >= 10**17)
               | (np.abs(rest - np.floor(rest) - 0.5) < 1e-9))
    # each stage's scratch is freed once read, so the peak holds one stage's
    # arrays at a time, about 330 bytes a value
    del fast, xs, p, prod, xh, xl, hh, hl, rest

    top, low = np.divmod(D, 10**8)
    top, g2 = np.divmod(top, 10**4)
    d0, g1 = np.divmod(top, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    src = np.empty((rows, cols, _ROW), np.uint8)
    src[:, :, _ZERO:] = np.frombuffer(b"0.e-,\0\0\0", np.uint8)
    src[:, -1, _SEP] = ord("\n")
    src = src.reshape(n, _ROW)
    src[:, _DIGIT] = d0 + ord("0")
    words = src.view(np.uint32)
    for w, g in enumerate((g1, g2, g3, g4), start=1):
        words[:, w] = _DIGITS4[g]
    words[:, _EXP // 4] = _DIGITS4[np.maximum(-e, 0)]
    zeros = _ZEROS4[g4] + (g4 == 0) * (_ZEROS4[g3] + (g3 == 0) * (
        _ZEROS4[g2] + (g2 == 0) * _ZEROS4[g1]))
    limit = 17 - zeros
    del D, top, low, d0, g1, g2, g3, g4, zeros
    cat = np.where(e >= -4, e + 4, np.where(e >= -99, _SCI2, _SCI3))
    cat[zero] = _ZERO_CAT
    cat[spliced] = _SPLICED
    for i in np.flatnonzero(spliced):
        text = format(float(x[i]), ".17g").encode()
        src[i, :len(text)] = np.frombuffer(text, np.uint8)
        limit[i] = len(text)

    at = _INDEX.take(cat, axis=0)
    at += np.arange(0, n * _ROW, _ROW)[:, None]
    keep = _RANK.take(cat, axis=0) < limit[:, None]
    return src.ravel().take(at)[keep].tobytes()
