"""TSV edge format: ``u\\tv\\n`` per edge (paper Section IV.A).

Encoding and decoding are the pipeline's data-movement hot path — every
Kernel 0 shard write and Kernel 1 shard read pays them — so both run
as whole-array numpy operations with no per-line Python objects:

* **Encode** writes every label's digits right-aligned into one
  fixed-width ``(M, wu + wv + 2)`` ``uint8`` matrix (``uint32``
  arithmetic when every label is below ``2**32``), then drops the
  left padding with one boolean compress whose mask rows come from a
  table indexed by digit count.
* **Decode** is ``np.fromstring(payload, sep=" ")`` behind a guard: a
  payload holding any byte other than digits and ``bytes.split()``
  whitespace, or any label ``>= 10**18``, goes to the split path
  instead: ``fromstring`` rejects junk with a bare ``ValueError`` (a
  mere warning on numpy 1.x) and saturates overflow silently.

The string-kernel paths are kept as private functions: they back the
corruption diagnostics (exact error messages, line numbers via
:func:`parse_edge_line`), handle exotic but legal inputs the fast path
declines (signed labels, ``+`` prefixes, 19+-digit labels), and serve
as the reference that ``tools/bench_codec.py`` measures the fast paths
against.  Fast and reference paths are asserted byte/bit-identical by
the test suite.

The paper's Matlab reference is 1-based; this library is 0-based
internally.  ``vertex_base`` selects the on-disk convention (default 0)
and conversion happens at this boundary only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._util import check_nonneg_int, check_same_length
from repro.edgeio.errors import CorruptEdgeFileError

#: On-disk vertex labels start at this value by default.
DEFAULT_VERTEX_BASE = 0

_ASCII_ZERO = 0x30
_TAB = 0x09
_NEWLINE = 0x0A

#: Digits plus the six bytes ``bytes.split()`` treats as whitespace: a
#: payload of only these is safe to hand to ``np.fromstring``.
_TSV_BYTES = b"0123456789 \t\n\r\x0b\x0c"

#: Labels at or above this may have overflowed in ``np.fromstring``
#: (19+ digits); the split path parses them exactly or reports overflow.
_FAST_LABEL_LIMIT = 10**18


def encode_edges(
    u: np.ndarray,
    v: np.ndarray,
    *,
    vertex_base: int = DEFAULT_VERTEX_BASE,
) -> bytes:
    """Render edge arrays to TSV bytes.

    Parameters
    ----------
    u, v:
        Integer edge arrays (0-based labels).
    vertex_base:
        Added to every label on output (0 keeps labels as-is, 1 writes
        Matlab-style 1-based labels).

    Returns
    -------
    bytes
        ``b"u\\tv\\n"`` per edge, empty for empty input.

    Examples
    --------
    >>> import numpy as np
    >>> encode_edges(np.array([0, 2]), np.array([1, 0]))
    b'0\\t1\\n2\\t0\\n'
    """
    check_same_length("u", u, "v", v)
    check_nonneg_int("vertex_base", vertex_base)
    if len(u) == 0:
        return b""
    u_out = np.asarray(u, dtype=np.int64) + vertex_base
    v_out = np.asarray(v, dtype=np.int64) + vertex_base
    if int(u_out.min()) < 0 or int(v_out.min()) < 0:
        # Negative labels are legal bytes-wise but rare enough that the
        # fast path does not carry sign logic; the string kernels do.
        return _encode_edges_strings(u_out, v_out)
    return _encode_edges_fast(u_out, v_out)


def _encode_edges_strings(u_out: np.ndarray, v_out: np.ndarray) -> bytes:
    """Reference encoder via numpy's string kernels (slow, general).

    Builds one Python string object per line; kept for negative labels
    and as the baseline ``tools/bench_codec.py`` measures against.
    """
    u_txt = np.char.mod("%d", u_out)
    v_txt = np.char.mod("%d", v_out)
    lines = np.char.add(np.char.add(u_txt, "\t"), np.char.add(v_txt, "\n"))
    return "".join(lines.tolist()).encode("ascii")


def _digit_counts(values: np.ndarray) -> np.ndarray:
    """Decimal digit count of each non-negative label (exact, no log10)."""
    counts = np.ones(len(values), dtype=np.uint16)
    bound = 10
    ceiling = int(values.max())
    while bound <= ceiling:
        counts += values >= bound
        bound *= 10
    return counts


def _write_digits(columns: np.ndarray, values: np.ndarray) -> None:
    """Write each value's decimal digit values (0-9, not ASCII)
    right-aligned into ``columns``, an ``(M, w)`` view, zero-padded on
    the left."""
    remaining = values
    for col in range(columns.shape[1] - 1, -1, -1):
        quotient = remaining // 10
        np.subtract(remaining, quotient * 10, out=columns[:, col],
                    casting="unsafe")
        remaining = quotient


def _suffix_table(width: int) -> np.ndarray:
    """``(width + 1, width)`` bools; row ``d`` keeps the last ``d`` columns."""
    return np.arange(width) >= width - np.arange(width + 1)[:, None]


def _encode_edges_fast(u_out: np.ndarray, v_out: np.ndarray) -> bytes:
    """Vectorized encoder: one fixed-width byte matrix, one compress.

    Row ``i`` is ``u`` digits, tab, ``v`` digits, newline, each label
    right-aligned in its field's widest width.  The keep-mask row for a
    ``(du, dv)`` digit-count pair drops that row's padding; rows come
    from a small table of every pair, so the whole payload is one
    boolean compress.  The output is identical to
    :func:`_encode_edges_strings`.
    """
    if max(int(u_out.max()), int(v_out.max())) < 2**32:
        # uint32 division is about twice as fast as int64 division.
        u_out = u_out.astype(np.uint32)
        v_out = v_out.astype(np.uint32)
    du = _digit_counts(u_out)
    dv = _digit_counts(v_out)
    wu = int(du.max())
    wv = int(dv.max())
    width = wu + wv + 2
    rows = np.empty((len(u_out), width), dtype=np.uint8)
    _write_digits(rows[:, :wu], u_out)
    _write_digits(rows[:, wu + 1:-1], v_out)
    rows += _ASCII_ZERO
    rows[:, wu] = _TAB
    rows[:, -1] = _NEWLINE
    # table[du, dv] is the mask row for a line with those digit counts.
    table = np.ones((wu + 1, wv + 1, width), dtype=bool)
    table[:, :, :wu] = _suffix_table(wu)[:, None]
    table[:, :, wu + 1:-1] = _suffix_table(wv)
    table_rows = table.reshape(-1, width).view(f"V{width}").ravel()
    keep = np.take(table_rows, du * (wv + 1) + dv).view(bool)
    return rows.reshape(-1)[keep].tobytes()


def decode_edges(
    payload: bytes,
    *,
    vertex_base: int = DEFAULT_VERTEX_BASE,
    strict: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Parse TSV bytes back into ``(u, v)`` int64 arrays.

    Parameters
    ----------
    payload:
        File contents.
    vertex_base:
        Subtracted from every label on input.
    strict:
        When True, every line is validated individually and the first
        malformed line is reported with its line number; when False the
        buffer is tokenised in one shot (corruption is still detected,
        with a buffer-level message).

    Raises
    ------
    CorruptEdgeFileError
        On odd token counts or non-integer tokens.
    """
    check_nonneg_int("vertex_base", vertex_base)
    if not payload or not payload.strip():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    if strict:
        u_list = []
        v_list = []
        for lineno, raw in enumerate(payload.splitlines(), start=1):
            if not raw.strip():
                continue
            a, b = parse_edge_line(raw, lineno=lineno)
            u_list.append(a)
            v_list.append(b)
        u = np.array(u_list, dtype=np.int64) - vertex_base
        v = np.array(v_list, dtype=np.int64) - vertex_base
        return u, v

    decoded = _decode_edges_fast(payload)
    if decoded is None:
        decoded = _decode_edges_split(payload)
    u, v = decoded
    if vertex_base:
        u = u - vertex_base
        v = v - vertex_base
    return np.ascontiguousarray(u), np.ascontiguousarray(v)


def _decode_edges_fast(
    payload: bytes,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Guarded ``np.fromstring`` tokenizer for the common case.

    Handles non-negative decimal labels separated by the whitespace
    ``bytes.split()`` splits on, without building a Python token list.
    Returns ``None`` when the general parser must run instead: any other
    byte (signs, letters: the split path owns the error wording, where
    ``fromstring`` raises a bare ``ValueError`` or, on numpy 1.x, only
    warns) or any label ``>= 10**18`` (``fromstring`` saturates
    overflow to INT64_MAX silently).
    """
    if payload.translate(None, _TSV_BYTES):
        return None
    # fromstring accepts only immutable bytes; bytes(b) is b for bytes.
    values = np.fromstring(bytes(payload), dtype=np.int64, sep=" ")
    _check_even_tokens(len(values))
    if int(values.max()) >= _FAST_LABEL_LIMIT:
        return None
    return values[0::2], values[1::2]


def _decode_edges_split(payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """General tokenizer via ``payload.split()`` (slow, allocates a
    Python token list).  Owns the corruption error wording and the
    exotic-but-legal inputs (signed labels, ``+`` prefixes, labels of
    19 or more digits)."""
    tokens = payload.split()
    _check_even_tokens(len(tokens))
    try:
        flat = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise CorruptEdgeFileError(
            f"edge payload contains a non-integer vertex label: {exc}"
        ) from exc
    edges = flat.reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def _check_even_tokens(num_tokens: int) -> None:
    if num_tokens % 2 != 0:
        raise CorruptEdgeFileError(
            f"edge payload has an odd number of tokens ({num_tokens}); "
            "each edge needs exactly two vertex labels"
        )


def parse_edge_line(raw: bytes, *, lineno: int = 0) -> Tuple[int, int]:
    """Parse one ``u\\tv`` line strictly.

    Raises
    ------
    CorruptEdgeFileError
        If the line does not contain exactly two integer fields.
    """
    parts = raw.split()
    if len(parts) != 2:
        raise CorruptEdgeFileError(
            f"line {lineno}: expected 2 fields, found {len(parts)}: {raw[:80]!r}"
        )
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CorruptEdgeFileError(
            f"line {lineno}: non-integer vertex label in {raw[:80]!r}"
        ) from exc
