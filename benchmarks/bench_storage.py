"""Storage-stack read-path benchmark (the paper's Figs. 5/6 shape).

Sequentially reads the same volume through four device-mapper stacks —
plain, dm-crypt, dm-verity, and crypt+verity — cold (first pass after
open) and warm (repeat passes), recording wall-clock throughput, the
verity hash-path hit rate, and the simulated storage latency.  The
shape to reproduce: crypt adds a roughly constant factor, verity
multiplies cold reads by the hash-path depth, and the verified page
cache collapses warm reads (>= 5x over cold, asserted).  Every cold
pass must read back exactly the bytes the volume was filled with
(asserted after its timer stops), so a fast but wrong read path cannot
report a throughput.

A tamper section then flips one bit under each protected stack, cold
and warm, and asserts every flip is rejected — the warm speedup must
not come at the cost of serving poisoned caches.

Writes ``BENCH_storage.json`` (or ``--output``).

Run directly: ``PYTHONPATH=src python benchmarks/bench_storage.py``
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.attest import get_tracer, reset_tracer
from repro.crypto.drbg import HmacDrbg
from repro.storage.blockdev import RamBlockDevice
from repro.storage.dm import DmContext, DmTable
from repro.storage.dm_crypt import DmCryptError, luks_format
from repro.storage.dm_verity import VerityError, verity_format

BLOCK = 4096
#: Logical data blocks under dm-crypt's two LUKS header blocks.
HEADER_BLOCKS = 2


def _build_variant(kind: str, blocks: int):
    """Return (volume, raw_backing, raw_block_of_data_block, payload) for
    one stack variant over a freshly filled device."""
    payload = HmacDrbg(b"bench-storage:%s" % kind.encode()).generate(blocks * BLOCK)
    if kind in ("crypt", "crypt+verity"):
        backing = RamBlockDevice(HEADER_BLOCKS + blocks, BLOCK)
        master_key = HmacDrbg(b"bench-key").generate(64)
        plain = luks_format(backing, HmacDrbg(b"bench-rng"), master_key=master_key)
        plain.write_blocks(0, payload)
        raw_of = lambda i: HEADER_BLOCKS + i  # noqa: E731
        keys = {"master": master_key}
        inner = "crypt key=master"
    else:
        backing = RamBlockDevice(blocks, BLOCK, initial=payload)
        plain = backing
        raw_of = lambda i: i  # noqa: E731
        keys = {}
        inner = None

    devices = {"disk": backing}
    cmdline = {}
    if kind in ("verity", "crypt+verity"):
        fmt = verity_format(plain, salt=b"bench-salt")
        devices["hash"] = fmt.hash_device
        cmdline["rh"] = fmt.root_hash.hex()
        outer = f"verity hash=device:hash root=cmdline:rh cache_blocks={blocks}"
    else:
        outer = None

    targets = ["linear device=disk", f"cache blocks={blocks}"]
    if inner:
        targets.append(inner)
    if outer:
        targets.append(outer)
    table = DmTable.parse(kind, " ; ".join(targets))
    context = DmContext(devices=devices, keys=keys, cmdline_args=cmdline)
    return table.open(context), backing, raw_of, payload


def _sequential_pass(volume):
    """Read every block in order; return (seconds, the blocks read)."""
    read = []
    started = time.perf_counter()
    for index in range(volume.num_blocks):
        read.append(volume.read_block(index))
    return time.perf_counter() - started, read


def _measure_variant(kind: str, blocks: int, rounds: int) -> dict:
    reset_tracer()
    volume, _, _, payload = _build_variant(kind, blocks)
    cold, read = _sequential_pass(volume)
    # Checked after the timer stops: a fast but wrong read path must
    # not report a throughput.
    assert b"".join(read) == payload, f"{kind}: cold pass read wrong bytes"
    warm_passes = [_sequential_pass(volume)[0] for _ in range(rounds)]
    warm = sum(warm_passes) / len(warm_passes)
    mib = blocks * BLOCK / (1024 * 1024)
    storage = get_tracer().storage
    result = {
        "cold_ms": cold * 1000,
        "warm_ms": warm * 1000,
        "cold_mib_per_s": mib / cold,
        "warm_mib_per_s": mib / warm,
        "warm_speedup": cold / warm,
        "sim_ms_total": storage.sim_seconds * 1000,
    }
    if kind in ("verity", "crypt+verity"):
        result["verify_hit_rate"] = storage.verify_hit_rate()
    return result


#: Volume size for tamper probes — each probe rebuilds the stack (a
#: full XTS fill for crypt variants), so keep it small but multi-level.
TAMPER_BLOCKS = 64


def _tamper_check(kind: str, warm: bool, probes: int = 8) -> dict:
    """Flip one bit under a protected stack at several positions; count
    how many of the subsequent reads are rejected.  Must be all."""
    blocks = TAMPER_BLOCKS
    injected = rejected = 0
    for probe in range(probes):
        volume, backing, raw_of, _ = _build_variant(kind, blocks)
        if warm:
            _sequential_pass(volume)
        block = (probe * 7919) % blocks
        offset = (probe * 2641) % BLOCK
        backing.corrupt(raw_of(block) * BLOCK + offset, 1 << (probe % 8))
        injected += 1
        try:
            volume.read_block(block)
        except (VerityError, DmCryptError):
            rejected += 1
    return {"injected": injected, "rejected": rejected}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=2048,
                        help="data blocks per volume (4 KiB each)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="warm passes to average")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent / "BENCH_storage.json")
    args = parser.parse_args(argv)

    variants = {}
    for kind in ("plain", "crypt", "verity", "crypt+verity"):
        variants[kind] = _measure_variant(kind, args.blocks, args.rounds)
        print(f"{kind:>13s}: cold {variants[kind]['cold_mib_per_s']:7.1f} MiB/s, "
              f"warm {variants[kind]['warm_mib_per_s']:7.1f} MiB/s "
              f"({variants[kind]['warm_speedup']:5.1f}x)")

    plain_cold = variants["plain"]["cold_ms"]
    overhead = {
        kind: variants[kind]["cold_ms"] / plain_cold
        for kind in ("crypt", "verity", "crypt+verity")
    }

    tamper = {
        "verity": {
            "cold": _tamper_check("verity", warm=False),
            "warm": _tamper_check("verity", warm=True),
        },
        "crypt+verity": {
            "cold": _tamper_check("crypt+verity", warm=False),
            "warm": _tamper_check("crypt+verity", warm=True),
        },
    }

    # The two properties this PR's storage stack stands on: hot verified
    # reads are cheap, and the caches never launder tampering.
    for kind in ("verity", "crypt+verity"):
        speedup = variants[kind]["warm_speedup"]
        assert speedup >= 5.0, (
            f"{kind}: warm reads only {speedup:.1f}x faster than cold (need >= 5x)"
        )
    for kind, runs in tamper.items():
        for mode, counts in runs.items():
            assert counts["rejected"] == counts["injected"], (
                f"{kind} {mode}: {counts['injected'] - counts['rejected']} "
                "bit flips were NOT rejected"
            )
            print(f"{kind:>13s} tamper ({mode}): "
                  f"{counts['rejected']}/{counts['injected']} rejected")

    # Fig. 5/6 shape: every protected stack costs more than plain on the
    # cold path.  (Unlike the paper's hardware numbers, pure-Python XTS
    # makes crypt — not verity — the dominant cold cost here.)
    for kind in ("crypt", "verity", "crypt+verity"):
        assert overhead[kind] > 1.0, f"{kind} cold reads not slower than plain"

    results = {
        "benchmark": "storage stack read path (Figs. 5/6 shape)",
        "blocks": args.blocks,
        "block_size": BLOCK,
        "warm_rounds": args.rounds,
        "variants": variants,
        "cold_overhead_vs_plain": overhead,
        "tamper_rejection": tamper,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    return results


if __name__ == "__main__":
    main()
