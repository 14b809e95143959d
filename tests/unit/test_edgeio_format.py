"""Unit tests for the TSV edge format."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edgeio.errors import CorruptEdgeFileError
from repro.edgeio.format import (
    _decode_edges_fast,
    _decode_edges_split,
    _encode_edges_strings,
    decode_edges,
    encode_edges,
    parse_edge_line,
)


class TestEncode:
    def test_basic_layout(self):
        payload = encode_edges(np.array([0, 2]), np.array([1, 0]))
        assert payload == b"0\t1\n2\t0\n"

    def test_empty(self):
        assert encode_edges(np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64)) == b""

    def test_vertex_base_one(self):
        payload = encode_edges(np.array([0]), np.array([1]), vertex_base=1)
        assert payload == b"1\t2\n"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            encode_edges(np.array([1]), np.array([1, 2]))

    def test_large_labels(self):
        big = np.array([2**40], dtype=np.int64)
        payload = encode_edges(big, big)
        assert payload == f"{2**40}\t{2**40}\n".encode()


class TestDecode:
    def test_round_trip(self):
        u = np.array([5, 0, 63, 17], dtype=np.int64)
        v = np.array([2, 61, 0, 17], dtype=np.int64)
        ru, rv = decode_edges(encode_edges(u, v))
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_round_trip_with_base(self):
        u = np.array([0, 3], dtype=np.int64)
        v = np.array([1, 2], dtype=np.int64)
        payload = encode_edges(u, v, vertex_base=1)
        ru, rv = decode_edges(payload, vertex_base=1)
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_empty_and_whitespace_only(self):
        for payload in (b"", b"\n\n", b"  \n"):
            u, v = decode_edges(payload)
            assert len(u) == 0 and len(v) == 0

    def test_odd_token_count_raises(self):
        with pytest.raises(CorruptEdgeFileError, match="odd number"):
            decode_edges(b"1\t2\n3\n")

    def test_non_integer_raises(self):
        with pytest.raises(CorruptEdgeFileError, match="non-integer"):
            decode_edges(b"1\tabc\n")

    def test_strict_reports_line_number(self):
        with pytest.raises(CorruptEdgeFileError, match="line 2"):
            decode_edges(b"1\t2\nbroken\n", strict=True)

    def test_strict_skips_blank_lines(self):
        u, v = decode_edges(b"1\t2\n\n3\t4\n", strict=True)
        assert np.array_equal(u, [1, 3])

    def test_strict_and_fast_agree(self):
        payload = b"10\t20\n30\t40\n50\t60\n"
        fast = decode_edges(payload)
        strict = decode_edges(payload, strict=True)
        assert np.array_equal(fast[0], strict[0])
        assert np.array_equal(fast[1], strict[1])


class TestVectorizedEncodeParity:
    """The fast path must be byte-identical to the string-kernel path."""

    @pytest.mark.parametrize("hi", [1, 2, 10, 11, 101, 2**16, 2**32 - 1,
                                    2**32, 2**40, 2**62, 2**63 - 1])
    def test_random_arrays_byte_identical(self, hi):
        rng = np.random.default_rng(hi)
        u = rng.integers(0, hi, 257, dtype=np.int64)
        v = rng.integers(0, hi, 257, dtype=np.int64)
        assert encode_edges(u, v) == _encode_edges_strings(u, v)

    @pytest.mark.parametrize("value", [0, 9, 10, 99, 100, 999, 1000,
                                       10**9 - 1, 10**9, 2**32 - 1, 2**32,
                                       2**62, 2**63 - 1])
    def test_digit_count_boundaries(self, value):
        arr = np.array([value], dtype=np.int64)
        assert encode_edges(arr, arr) == f"{value}\t{value}\n".encode()

    def test_mixed_widths_one_payload(self):
        u = np.array([0, 10, 999, 2**40], dtype=np.int64)
        v = np.array([7, 100, 9, 1], dtype=np.int64)
        assert encode_edges(u, v) == b"0\t7\n10\t100\n999\t9\n1099511627776\t1\n"

    def test_negative_labels_fall_back_to_string_path(self):
        u = np.array([-3, 5], dtype=np.int64)
        v = np.array([2, -1], dtype=np.int64)
        assert encode_edges(u, v) == b"-3\t2\n5\t-1\n"

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**62),
                st.integers(min_value=0, max_value=2**62),
            ),
            min_size=1, max_size=64,
        ),
        st.integers(min_value=0, max_value=1),
    )
    def test_property_round_trip_and_parity(self, edges, base):
        u = np.array([e[0] for e in edges], dtype=np.int64)
        v = np.array([e[1] for e in edges], dtype=np.int64)
        payload = encode_edges(u, v, vertex_base=base)
        assert payload == _encode_edges_strings(u + base, v + base)
        ru, rv = decode_edges(payload, vertex_base=base)
        assert np.array_equal(ru, u) and np.array_equal(rv, v)


class TestBufferLevelDecode:
    """The guarded fromstring tokenizer must agree with ``payload.split()``."""

    @pytest.mark.parametrize("payload", [
        b"1 2\n3 4",            # space-separated
        b"1\t2\r\n3\t4\r\n",    # CRLF
        b"  5\t6\n",            # leading whitespace
        b"7\x0b8",              # vertical tab (split() treats it as ws)
        b"9\x0c10\n",           # form feed
        b"1\t2\n\n\n3\t4\n",    # blank lines
    ])
    def test_whitespace_variants_match_split(self, payload):
        fast = _decode_edges_fast(payload)
        legacy = _decode_edges_split(payload)
        assert fast is not None
        assert np.array_equal(fast[0], legacy[0])
        assert np.array_equal(fast[1], legacy[1])

    def test_signed_labels_defer_to_split_path(self):
        assert _decode_edges_fast(b"-5\t3\n") is None
        u, v = decode_edges(b"-5\t3\n")
        assert u[0] == -5 and v[0] == 3

    def test_plus_prefix_defers_to_split_path(self):
        assert _decode_edges_fast(b"+5\t3\n") is None
        u, v = decode_edges(b"+5\t3\n")
        assert u[0] == 5 and v[0] == 3

    def test_long_tokens_defer_to_split_path(self):
        # 19 digits can overflow the vectorized accumulate; int64 still
        # holds 2**62, so the split path must produce the value.
        big = 2**62
        payload = f"{big}\t{big}\n".encode()
        assert _decode_edges_fast(payload) is None
        u, v = decode_edges(payload)
        assert u[0] == big and v[0] == big

    def test_int64_max_round_trips_exactly(self):
        top = 2**63 - 1
        payload = f"{top}\t{top}\n".encode()
        assert _decode_edges_fast(payload) is None
        u, v = decode_edges(payload)
        assert u.tolist() == [top] and v.tolist() == [top]

    @pytest.mark.parametrize("payload", [
        b"1.5\t2\n", b"0x10\t2\n", b"1e3\t2\n", b"nan\t1\n",
    ])
    def test_float_hex_and_nan_tokens_are_non_integer(self, payload):
        with pytest.raises(CorruptEdgeFileError, match="non-integer"):
            decode_edges(payload)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(list(b"0123456789 \t\n\r\x0b\x0c-+.xe")),
                    max_size=40).map(bytes))
    def test_fuzzed_bytes_match_split_path(self, payload):
        try:
            expected = _decode_edges_split(payload)
        except CorruptEdgeFileError:
            with pytest.raises(CorruptEdgeFileError):
                decode_edges(payload)
            return
        u, v = decode_edges(payload)
        assert u.dtype == np.int64 and v.dtype == np.int64
        assert np.array_equal(u, expected[0])
        assert np.array_equal(v, expected[1])

    def test_overflowing_token_is_corruption(self):
        with pytest.raises(CorruptEdgeFileError, match="non-integer"):
            decode_edges(b"99999999999999999999\t1\n")

    def test_odd_token_count_message_matches_legacy(self):
        with pytest.raises(CorruptEdgeFileError,
                           match=r"odd number of tokens \(3\)"):
            decode_edges(b"1\t2\n3\n")

    def test_no_python_token_list_on_fast_path(self, monkeypatch):
        # The satellite fix: warm decode must not materialise an
        # O(edges) Python list.  Trip the legacy tokenizer to prove the
        # fast path never reaches it for clean payloads.
        import repro.edgeio.format as fmt

        def boom(payload):
            raise AssertionError("legacy split path used on clean payload")

        monkeypatch.setattr(fmt, "_decode_edges_split", boom)
        u, v = decode_edges(b"12\t34\n56\t78\n")
        assert u.tolist() == [12, 56] and v.tolist() == [34, 78]


class TestParseEdgeLine:
    def test_valid(self):
        assert parse_edge_line(b"12\t34") == (12, 34)

    def test_wrong_field_count(self):
        with pytest.raises(CorruptEdgeFileError, match="expected 2 fields"):
            parse_edge_line(b"1\t2\t3", lineno=7)

    def test_non_integer(self):
        with pytest.raises(CorruptEdgeFileError, match="non-integer"):
            parse_edge_line(b"x\ty")
