"""Micro-benchmark: fast vs reference TSV edge codec.

Quantifies the :mod:`repro.edgeio.format` fast paths independently of
the pipeline.  Random edge arrays at the requested Graph500 scales are
encoded with the fixed-width digit-matrix path (one boolean compress
drops the padding) and with the reference ``np.char`` string path; the
payload is then decoded with the guarded ``np.fromstring`` path (a
byte-class check and a label bound send anything unusual to the split
path) and with the reference ``payload.split()`` tokenizer.
Throughput is reported in MB/s of TSV payload, with the speedup per
direction, and every fast-path result is asserted identical to its
reference counterpart before any number is printed.

Usage::

    python tools/bench_codec.py [--scales 14,16,18] [--edge-factor 16]
        [--repeats 3] [--seed 1] [--min-encode-speedup X]
        [--min-decode-speedup X]

The per-scale label space matches the pipeline: scale ``s`` draws
``edge_factor * 2**s`` edges with labels uniform in ``[0, 2**s)``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.edgeio.format import (
    _decode_edges_split,
    _encode_edges_strings,
    decode_edges,
    encode_edges,
)


def _best_seconds(fn, repeats: int) -> float:
    """Best-of-N wall time (standard micro-benchmark discipline)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_scale(scale: int, edge_factor: int, seed: int, repeats: int) -> dict:
    """Measure both codec paths at one scale; returns the row dict."""
    rng = np.random.default_rng(seed)
    num_edges = edge_factor * (1 << scale)
    u = rng.integers(0, 1 << scale, num_edges, dtype=np.int64)
    v = rng.integers(0, 1 << scale, num_edges, dtype=np.int64)

    payload = encode_edges(u, v)
    legacy_payload = _encode_edges_strings(u, v)
    if payload != legacy_payload:
        raise AssertionError(
            f"scale {scale}: vectorized encode output differs from the "
            f"string-kernel path"
        )
    fast_u, fast_v = decode_edges(payload)
    legacy_u, legacy_v = _decode_edges_split(payload)
    if not (np.array_equal(fast_u, legacy_u)
            and np.array_equal(fast_v, legacy_v)):
        raise AssertionError(
            f"scale {scale}: fromstring decode differs from the "
            f"split-tokenizer path"
        )

    mb = len(payload) / 1e6
    encode_fast = _best_seconds(lambda: encode_edges(u, v), repeats)
    encode_slow = _best_seconds(
        lambda: _encode_edges_strings(u, v), repeats
    )
    decode_fast = _best_seconds(lambda: decode_edges(payload), repeats)
    decode_slow = _best_seconds(
        lambda: _decode_edges_split(payload), repeats
    )
    return {
        "scale": scale,
        "num_edges": num_edges,
        "payload_mb": mb,
        "encode_fast_mbs": mb / encode_fast,
        "encode_slow_mbs": mb / encode_slow,
        "encode_speedup": encode_slow / encode_fast,
        "decode_fast_mbs": mb / decode_fast,
        "decode_slow_mbs": mb / decode_slow,
        "decode_speedup": decode_slow / decode_fast,
    }


def _csv_ints(text: str):
    return [int(part) for part in text.split(",") if part.strip()]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scales", type=_csv_ints, default=[14, 16, 18],
                        help="Graph500 scales to measure (default 14,16,18)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N per measurement")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-encode-speedup", type=float, default=0.0,
                        help="exit 1 unless every scale's encode speedup "
                             "meets this factor (CI gates 3.0)")
    parser.add_argument("--min-decode-speedup", type=float, default=0.0,
                        help="exit 1 unless every scale's decode speedup "
                             "meets this factor (CI gates 2.0)")
    args = parser.parse_args(argv[1:])

    header = (
        f"{'scale':>5} {'edges':>10} {'MB':>7} "
        f"{'enc fast':>9} {'enc str':>9} {'enc x':>6} "
        f"{'dec fast':>9} {'dec split':>9} {'dec x':>6}"
    )
    print(header)
    print("-" * len(header))
    slow = []
    for scale in args.scales:
        row = bench_scale(scale, args.edge_factor, args.seed, args.repeats)
        print(
            f"{row['scale']:>5} {row['num_edges']:>10,} "
            f"{row['payload_mb']:>7.1f} "
            f"{row['encode_fast_mbs']:>7.0f}/s {row['encode_slow_mbs']:>7.0f}/s "
            f"{row['encode_speedup']:>5.1f}x "
            f"{row['decode_fast_mbs']:>7.0f}/s {row['decode_slow_mbs']:>7.0f}/s "
            f"{row['decode_speedup']:>5.1f}x",
            flush=True,
        )
        for direction, floor in (("encode", args.min_encode_speedup),
                                 ("decode", args.min_decode_speedup)):
            speedup = row[f"{direction}_speedup"]
            if speedup < floor:
                slow.append(f"{direction} at scale {scale} ({speedup:.1f}x "
                            f"< {floor:g}x)")
    print("(throughput in MB/s of TSV payload; fast paths asserted "
          "byte/bit-identical to the reference paths before timing)")
    if slow:
        print("error: speedup below the floor: " + ", ".join(slow),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
