"""Naive vs fast-path ECDSA verification throughput.

Measures four verification strategies per curve:

``naive``
    The retained pre-fast-path verifier (``verify_rs_reference``): two
    independent double-and-add multiplications with per-op affine
    round-trips.
``fast_cold``
    The engine's first contact with a key — Strauss–Shamir over freshly
    built odd multiples (the point cache is reset before every round).
``fast_hot``
    The steady state for VCEK/ASK/ARK/site keys: fixed-base tables on
    both halves of ``u1*G + u2*Q``.  Distinct messages per round, so the
    signature cache never hits — this is pure EC speedup.
``memoized``
    Re-verifying an identical ``(key, message, signature)`` tuple — a
    signature-cache hit (what the extension does on every page load).

Writes ``BENCH_crypto.json`` next to this script and fails if the hot
fast path is not measurably faster than the naive path.

Run directly: ``PYTHONPATH=src python benchmarks/bench_crypto.py``
CI smoke mode: ``BENCH_CRYPTO_ROUNDS=6 PYTHONPATH=src python benchmarks/bench_crypto.py``
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.crypto import ec, sigcache
from repro.crypto.batch import BatchItem, BatchVerifier
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey, verify_rs_reference

ROUNDS = int(os.environ.get("BENCH_CRYPTO_ROUNDS", "40"))
#: The hot fast path must beat naive by at least this factor for the
#: benchmark to pass.  Kept deliberately conservative so the CI smoke
#: run (few rounds, noisy shared runners) stays reliable; full runs on
#: this implementation measure ~8x or better (recorded in the JSON).
MIN_SPEEDUP = float(os.environ.get("BENCH_CRYPTO_MIN_SPEEDUP", "1.5"))
#: Cold attestation chains in the batch-verification phase (>= 16 keeps
#: the MSM amortisation representative of a fleet admission storm).
BATCH_CHAINS = int(os.environ.get("BENCH_CRYPTO_BATCH_CHAINS", "16"))
#: Required batch-vs-naive speedup on cold 3-cert P-384 chains.  Full
#: runs clear 10x; CI smoke lowers the floor to 4x for noisy runners.
MIN_BATCH_SPEEDUP = float(os.environ.get("BENCH_CRYPTO_MIN_BATCH_SPEEDUP", "10.0"))
#: Point-cache churn phase: hot keys, and rounds of one-shot keys.
CHURN_HOT_KEYS = 4
CHURN_ROUNDS = 3

CURVES = {"P-256": "sha256", "P-384": "sha384"}


def _signatures(curve_name: str, hash_name: str):
    curve = ec.get_curve(curve_name)
    private = EcdsaPrivateKey.generate(curve, HmacDrbg(b"bench-" + curve_name.encode()))
    public = private.public_key()
    size = curve.coordinate_size
    batch = []
    for index in range(ROUNDS):
        message = b"bench message %d" % index
        signature = private.sign(message, hash_name)
        r = int.from_bytes(signature[:size], "big")
        s = int.from_bytes(signature[size:], "big")
        batch.append((message, signature, r, s))
    return public, batch


def _throughput(worker, rounds: int) -> float:
    started = time.perf_counter()
    for index in range(rounds):
        assert worker(index), "benchmark signature failed to verify"
    return rounds / (time.perf_counter() - started)


def _measure_curve(curve_name: str, hash_name: str) -> dict:
    public, batch = _signatures(curve_name, hash_name)

    naive = _throughput(
        lambda i: verify_rs_reference(
            public, batch[i][0], batch[i][2], batch[i][3], hash_name
        ),
        ROUNDS,
    )

    def cold(i):
        ec.reset_point_cache()
        return public.verify_rs(batch[i][0], batch[i][2], batch[i][3], hash_name)

    fast_cold = _throughput(cold, ROUNDS)

    ec.reset_point_cache()
    sigcache.reset_cache()
    for _ in range(2):  # cross hot_threshold: builds the fixed-base table
        public.verify_rs(batch[0][0], batch[0][2], batch[0][3], hash_name)
    fast_hot = _throughput(
        lambda i: public.verify_rs(batch[i][0], batch[i][2], batch[i][3], hash_name),
        ROUNDS,
    )
    point_stats = ec.get_point_cache().stats()

    sigcache.reset_cache()
    message, signature, _, _ = batch[0]
    sigcache.cached_verify(public, message, signature, hash_name)  # prime
    memoized = _throughput(
        lambda i: sigcache.cached_verify(public, message, signature, hash_name),
        ROUNDS,
    )
    sig_stats = sigcache.get_cache().stats()

    return {
        "hash": hash_name,
        "naive_verifications_per_sec": naive,
        "fast_cold_verifications_per_sec": fast_cold,
        "fast_hot_verifications_per_sec": fast_hot,
        "memoized_verifications_per_sec": memoized,
        "hot_speedup_vs_naive": fast_hot / naive,
        "memoized_speedup_vs_naive": memoized / naive,
        "point_cache": point_stats,
        "signature_cache": sig_stats,
    }


def _cold_chains(count: int):
    """A fleet admission storm's verification work: *count* cold 3-cert
    P-384 chains sharing one root and one intermediate (AMD's ARK/ASK),
    each with its own leaf key (the per-chip VCEK) and report signature.
    Returns per-chain lists of (public, message, signature) triples."""
    curve = ec.get_curve("P-384")
    root = EcdsaPrivateKey.generate(curve, HmacDrbg(b"bench-batch-root"))
    intermediate = EcdsaPrivateKey.generate(
        curve, HmacDrbg(b"bench-batch-intermediate")
    )
    intermediate_tbs = b"bench intermediate certificate (ASK)"
    intermediate_sig = root.sign(intermediate_tbs, "sha384")
    chains = []
    for index in range(count):
        leaf = EcdsaPrivateKey.generate(
            curve, HmacDrbg(b"bench-batch-leaf-%d" % index)
        )
        leaf_tbs = b"bench leaf certificate (VCEK) %d" % index
        report = b"bench attestation report %d" % index
        chains.append([
            (root.public_key(), intermediate_tbs, intermediate_sig),
            (intermediate.public_key(), leaf_tbs,
             intermediate.sign(leaf_tbs, "sha384")),
            (leaf.public_key(), report, leaf.sign(report, "sha384")),
        ])
    return chains


def _measure_batch() -> dict:
    """Batch verification of a cold admission storm vs naive per-sig."""
    chains = _cold_chains(BATCH_CHAINS)
    flat = [triple for chain in chains for triple in chain]

    def naive_chain(i):
        for public, message, signature in chains[i]:
            size = public.curve.coordinate_size
            r = int.from_bytes(signature[:size], "big")
            s = int.from_bytes(signature[size:], "big")
            if not verify_rs_reference(public, message, r, s, "sha384"):
                return False
        return True

    naive = _throughput(naive_chain, BATCH_CHAINS)

    ec.reset_point_cache()  # cold: no precomputed key tables
    verifier = BatchVerifier(HmacDrbg(b"bench-batch"))
    items = [
        BatchItem(public, message, signature, "sha384")
        for public, message, signature in flat
    ]
    started = time.perf_counter()
    result = verifier.verify(items)
    elapsed = time.perf_counter() - started
    assert all(result.verdicts), "batch benchmark signature failed to verify"
    batch = BATCH_CHAINS / elapsed

    return {
        "chains": BATCH_CHAINS,
        "signatures": len(items),
        "curve": "P-384",
        "naive_chains_per_sec": naive,
        "batch_chains_per_sec": batch,
        "batch_signatures_per_sec": len(items) / elapsed,
        "batch_speedup_vs_naive": batch / naive,
        "batch_stats": result.stats(),
    }


def _measure_point_cache_churn() -> dict:
    """The point cache under a fleet rollout's key pattern.

    Each round verifies twice under each of a few hot keys (the chain
    and gateway keys every re-attestation checks), interleaved with more
    keys seen once than the cache holds (the replaced nodes' fresh chip
    and node keys), which then run on past the cache's capacity before
    the next round.  Every hot key needs its fixed-base table built once:
    ``tables_built`` equals ``hot_keys`` unless one-shot keys evict
    tables, in which case every round rebuilds them."""
    curve = ec.get_curve("P-256")
    cache = ec.reset_point_cache()
    size = curve.coordinate_size

    def signed(label: bytes):
        private = EcdsaPrivateKey.generate(curve, HmacDrbg(b"bench-churn-" + label))
        message = b"churn message " + label
        signature = private.sign(message)
        return (
            private.public_key(),
            message,
            int.from_bytes(signature[:size], "big"),
            int.from_bytes(signature[size:], "big"),
        )

    hot = [signed(b"hot-%d" % index) for index in range(CHURN_HOT_KEYS)]
    one_shot_per_round = cache.capacity + 12
    sequence = []
    for round_index in range(CHURN_ROUNDS):
        one_shot = [
            signed(b"%d-%d" % (round_index, index))
            for index in range(one_shot_per_round)
        ]
        for key in hot + hot:
            sequence += [key, one_shot.pop()]
        sequence += one_shot
    started = time.perf_counter()
    for public, message, r, s in sequence:
        assert public.verify_rs(message, r, s, "sha256")
    elapsed = time.perf_counter() - started
    stats = cache.stats()
    churn = {
        "capacity": cache.capacity,
        "hot_keys": CHURN_HOT_KEYS,
        "tables_built": stats["fixed_tables_built"],
        "one_shot_keys_per_round": one_shot_per_round,
        "rounds": CHURN_ROUNDS,
        "distinct_keys": CHURN_HOT_KEYS + CHURN_ROUNDS * one_shot_per_round,
        "entries": stats["entries"],
        "hits": stats["hits"],
        "misses": stats["misses"],
        "evicted": stats["misses"] - stats["entries"],
        "verifications_per_sec": len(sequence) / elapsed,
    }
    ec.reset_point_cache()
    return churn


def main() -> dict:
    results = {
        "benchmark": "ECDSA verification: naive vs fast path",
        "rounds": ROUNDS,
        "min_required_hot_speedup": MIN_SPEEDUP,
        "curves": {},
    }
    for curve_name, hash_name in CURVES.items():
        measured = _measure_curve(curve_name, hash_name)
        results["curves"][curve_name] = measured
        print(
            f"{curve_name}: naive {measured['naive_verifications_per_sec']:7.1f}/s"
            f"  cold {measured['fast_cold_verifications_per_sec']:7.1f}/s"
            f"  hot {measured['fast_hot_verifications_per_sec']:7.1f}/s"
            f"  memoized {measured['memoized_verifications_per_sec']:9.0f}/s"
            f"  (hot speedup {measured['hot_speedup_vs_naive']:.1f}x)"
        )
        assert measured["hot_speedup_vs_naive"] >= MIN_SPEEDUP, (
            f"{curve_name} hot fast path is only "
            f"{measured['hot_speedup_vs_naive']:.2f}x naive "
            f"(required >= {MIN_SPEEDUP}x)"
        )

    batch = _measure_batch()
    results["batch"] = batch
    results["min_required_batch_speedup"] = MIN_BATCH_SPEEDUP
    print(
        f"batch: {batch['chains']} cold 3-cert P-384 chains  "
        f"naive {batch['naive_chains_per_sec']:6.1f} chains/s  "
        f"batch {batch['batch_chains_per_sec']:6.1f} chains/s  "
        f"({batch['batch_speedup_vs_naive']:.1f}x)"
    )
    assert batch["batch_speedup_vs_naive"] >= MIN_BATCH_SPEEDUP, (
        f"batch verification is only "
        f"{batch['batch_speedup_vs_naive']:.2f}x naive on cold chains "
        f"(required >= {MIN_BATCH_SPEEDUP}x)"
    )

    churn = _measure_point_cache_churn()
    results["point_cache_churn"] = churn
    print(
        f"point-cache churn: {churn['hot_keys']} hot keys among "
        f"{churn['one_shot_keys_per_round']} one-shot keys a round for "
        f"{churn['rounds']} rounds, capacity {churn['capacity']}: "
        f"{churn['tables_built']} tables built, {churn['evicted']} evicted, "
        f"{churn['hits']} hits"
    )

    output = Path(__file__).resolve().parent / "BENCH_crypto.json"
    output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {output}")
    return results


if __name__ == "__main__":
    main()
