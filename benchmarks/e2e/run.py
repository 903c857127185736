"""The end-to-end benchmark: one command, four workloads.

Run every workload once, each in its own single-threaded process, print
every metric as ``workload metric value unit`` and check the outputs::

    python3 benchmarks/e2e/run.py --seed 42

Other forms::

    run.py --repeat 5              # each metric's median, quartiles, spread
    run.py --trace 1               # per-layer numbers from a traced replay
    run.py --workload mesh_ladder --seed 7 --seconds 20 --trace 0

With ``--workload`` (and no ``--repeat``) the workload runs in this
process and the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics.  The line before it, ``detail: {...}``, holds every
figure the run measured.  The exit code is non-zero when an output
check fails.  Without ``--workload`` the results, with the machine they ran
on, are written under ``benchmarks/e2e/results/`` (or ``--out``) for
``compare.py``.

A run measures in rounds (see ``workloads.py``) until ``--seconds``
have passed and at least the pooled rounds are done.  Host times are
read against the machine's speed at the moment (``hostclock.py``):
``ops_per_s`` is every round's ops over every round's host seconds,
``setup_s`` the median round's; simulated metrics are a pure function
of the seed.
"""

from __future__ import annotations

import os

# Each workload process is single-threaded: keep numpy off thread pools.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from hostclock import HostClock, timed  # noqa: E402
from stats import quartiles, spread  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
DETAIL_PREFIX = "detail: "


# -- one workload, in this process --------------------------------------------


def measure(workload, seconds: float) -> list:
    """Run rounds until *seconds* have passed, never fewer than the
    workload's pooled rounds; one more round starts only if it is
    expected to end in time.  A round's ``drive_s`` is host time (see
    ``hostclock.py``), its ``drive_wall_s`` the wall time."""
    rounds = []
    started = time.perf_counter()
    index = 0
    while True:
        gc.collect()
        with HostClock() as set_up:
            world = workload.setup(index, pooled=index < workload.sim_rounds)
        ops, wall, host, part_s = timed(workload.drive(world))
        digest = workload.check(world, part_s)
        del world
        rounds.append({
            "index": index, "setup_s": set_up.host,
            "setup_wall_s": set_up.wall, "drive_s": host,
            "drive_wall_s": wall, "ops": ops, "digest": digest,
            "peak_rss_mb": peak_rss_mb(),
        })
        index += 1
        elapsed = time.perf_counter() - started
        if index >= workload.sim_rounds and elapsed * (index + 1) / index > seconds:
            return rounds


def peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def replay(workload, tracer=None) -> tuple:
    """Build and drive round 0 again; returns (drive wall time, drive
    host time, digest).  Only slice boundaries, which no span spans,
    read the machine's speed."""
    gc.collect()
    world = workload.setup(0, pooled=False)
    if tracer is not None:
        tracer.active = True
    try:
        _, wall, host, _ = timed(workload.drive(world), laps=False)
    finally:
        if tracer is not None:
            tracer.active = False
    return wall, host, workload.check(world)


def traced_replay(workload, rounds: list, spans_path: Path) -> dict:
    """Replay round 0 untraced, then with every layer entry point traced.
    Both replays' simulated digests must equal round 0's byte for byte;
    the tracing overhead is the traced replay's host time over the
    untraced one's, which ran just before it."""
    from trace import LAYERS, SpanTracer

    _, untraced, untraced_digest = replay(workload)
    tracer = SpanTracer()
    tracer.install()
    try:
        wall, host, digest = replay(workload, tracer)
    finally:
        tracer.uninstall()
    reference = canonical(rounds[0]["digest"])
    workload.expect(canonical(untraced_digest) == reference,
                    "replaying round 0 changed its simulated results")
    workload.expect(canonical(digest) == reference,
                    "the traced replay's simulated results differ from round 0's")
    summary = tracer.summary(wall)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(spans_path, wall)

    calls, sizes = summary["calls"], summary["bytes"]
    layer = {f"{name}.self_s": summary["self_s"][name] for name in LAYERS}
    layer.update({
        "trace.overhead_ratio": host / untraced - 1.0,
        "trace.unattributed_share": summary["unattributed_share"],
        "net.requests": calls.get("Host.request", 0),
        "net.tls.handshakes": calls.get("tls_connect", 0),
        "crypto.encoding.calls": calls.get("encode", 0) + calls.get("decode", 0),
        "crypto.aead.bytes": sizes.get("crypto.aead", 0),
        "crypto.xts.bytes": sizes.get("crypto.xts", 0),
        "crypto.ecdsa.verifies": calls.get("SignatureVerificationCache.verify", 0)
        + calls.get("EcdsaPublicKey.verify", 0),
        "core.navigations": calls.get("Browser.navigate", 0),
    })
    return {"per_layer": layer, "summary": summary, "wall_s": wall,
            "spans_file": str(spans_path.relative_to(ROOT))}


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    rounds = measure(workload, args.seconds)
    sim = workload.sim_results()
    if args.scale >= 1.0:
        for name, count in sim["p99_beyond"].items():
            workload.expect(count >= 10,
                            f"{name}: only {count} samples beyond the p99")

    end_to_end = {
        "setup_s": median(r["setup_s"] for r in rounds),
        "ops_per_s": (sum(r["ops"] for r in rounds)
                      / sum(r["drive_s"] for r in rounds)),
        # Each round leaves the heap a little more fragmented, so the
        # peak over the whole run grows with how many rounds the machine
        # managed; the peak after round 0 is one world's footprint.
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
        "sim_latency_ms": sim["sim_latency_ms"],
    }
    per_layer = dict(sim["per_layer"])
    per_layer["sim.steps_per_host_s"] = median(
        r["digest"]["stats"].get("sim.steps", 0) / r["drive_s"] for r in rounds)
    for name, samples in workload.host_samples.items():
        per_layer[name] = median(samples)
    traced = None
    if args.trace:
        spans = RESULTS / f"spans-{workload.name}-seed{args.seed}.jsonl"
        traced = traced_replay(workload, rounds, spans)
        per_layer.update(traced["per_layer"])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {
        entry["name"]: {"value": finite(values.get(entry["name"], 0.0)),
                        "unit": entry["unit"]}
        for entry in declared
    }
    correct = not workload.failures
    report(workload, spec, end_to_end, per_layer, sim, rounds, args.trace)
    for failure in workload.failures:
        print(f"{workload.name} CHECK FAILED: {failure}")
    detail = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "sim": {key: value for key, value in sim.items() if key != "per_layer"},
        "rounds": [{key: r[key] for key in
                    ("index", "setup_s", "setup_wall_s", "drive_s",
                     "drive_wall_s", "ops", "peak_rss_mb")}
                   for r in rounds],
        "trace": traced and {k: traced[k] for k in ("summary", "spans_file")},
        "failures": workload.failures,
    }
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(workload.attempted)),
        "failed": int(workload.failed),
        "metrics": metrics,
    }, allow_nan=False))
    return 0 if correct else 1


def finite(value) -> float:
    """JSON has no infinity; a percentile that fell on a failed request
    reads as the largest float."""
    value = float(value)
    return value if math.isfinite(value) else sys.float_info.max


def report(workload, spec, end_to_end, per_layer, sim, rounds, trace) -> None:
    """The human-readable lines: ``workload metric value unit``."""
    name = workload.name
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    print(f"{name} rounds {len(rounds)} "
          f"({workload.sim_rounds} pooled into the sim results)")
    for metric, value in end_to_end.items():
        note = f" (one op: {workload.op})" if metric == "ops_per_s" else ""
        print(f"{name} {metric} {value:.6g} {units[metric]}{note}")
    for kind, stats in sorted(sim["latency"].items()):
        tail = f"p{round(stats['tail_q'] * 100)}"
        print(f"{name} {kind}_p50_ms {stats['p50_ms']:.6g} sim-ms "
              f"n={stats['count']}")
        if stats["tail_q"] > 0.5:
            print(f"{name} {kind}_{tail}_ms {stats['tail_ms']:.6g} sim-ms "
                  f"n={stats['count']} beyond={stats['beyond_tail']}")
    if trace:
        for entry in spec["per_layer"]:
            value = per_layer.get(entry["name"], 0.0)
            print(f"{name} {entry['name']} {value:.6g} {entry['unit']}")


# -- every workload, one process each ---------------------------------------------


def machine() -> dict:
    """What the results were measured on."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def orchestrate(args, spec: dict) -> int:
    names = ([args.workload] if args.workload
             else [entry["name"] for entry in spec["workloads"]])
    runs = []
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--scale", repr(args.scale),
            ]
            child = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, check=False)
            lines = child.stdout.splitlines()
            detail, result = None, None
            for line in lines:
                if line.startswith(DETAIL_PREFIX):
                    detail = json.loads(line[len(DETAIL_PREFIX):])
                elif line.startswith("{"):
                    result = json.loads(line)
                elif args.repeat == 1:
                    print(line)
            if child.returncode != 0 or result is None:
                status = 1
                sys.stderr.write(child.stderr)
                print(f"{name} FAILED (exit {child.returncode})")
            runs.append({"workload": name, "repeat": repeat,
                         "exit_code": child.returncode, "result": result,
                         "detail": detail})
    if args.repeat > 1:
        print_spread(runs, names)
    out = args.out or RESULTS / time.strftime(
        f"e2e-seed{args.seed}-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "machine": machine(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "runs": runs,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


def print_spread(runs: list, names: list) -> None:
    """Median, quartiles and spread of every metric over the repeats."""
    for name in names:
        results = [run["result"] for run in runs
                   if run["workload"] == name and run["result"]]
        if not results:
            continue
        for metric, entry in results[0]["metrics"].items():
            values = [result["metrics"][metric]["value"] for result in results]
            q1, mid, q3 = quartiles(values)
            print(f"{name} {metric} {mid:.6g} {entry['unit']} "
                  f"[{q1:.6g} .. {q3:.6g}] spread {spread(values):.2%} "
                  f"n={len(values)}")


def main(argv=None) -> int:
    if not SPEC.is_file() or not (SRC / "repro").is_dir():
        print(f"error: needs {SPEC.name} and the repro sources under "
              f"{SRC.relative_to(ROOT)}/ in the checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one workload run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also replay a round traced, report per-layer")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; prints medians and spreads")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests)")
    parser.add_argument("--out", type=Path, help="results file to write")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.scale <= 0 or args.seconds <= 0:
        parser.error("--repeat, --scale and --seconds must be positive")
    if args.workload and args.repeat == 1:
        return run_workload(args, spec)
    return orchestrate(args, spec)


if __name__ == "__main__":
    sys.exit(main())
