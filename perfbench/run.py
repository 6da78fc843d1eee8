"""rimealg benchmark: one command, two workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {sweep,documents} --seed N \
        --seconds S --trace {0,1}

Each workload runs in a fresh single-threaded Python process that imports
``rimealg`` from ``src/`` of this checkout.  The loop is closed: one caller
runs one item at a time and starts whole rounds until ``--seconds`` have
passed.  The garbage collector stays on.  Item times are adjusted for the
machine's speed at the time (``speed.py``).

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
runs round 0 of the seed twice in fresh processes, once with the tracer of
``tracer.py`` installed and once without, checks that both give the same
verdicts, and prints the per-layer metrics with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output was correct; 2 for a usage error or a checkout without
``src/rimealg``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

#: setup samples per run: the workload process plus this many setup-only ones
SETUP_PROBES = 8
#: samples that must lie beyond the percentile reported as latency_ms_tail
TAIL_BEYOND = 10
#: speed probes after set-up in each process
SETUP_SPEED_PROBES = 5
#: no round starts after this many seconds, so a run ends well inside 180 s
ROUND_START_LIMIT_S = 120.0
#: wall-clock limit for every child process of one run together
RUN_LIMIT_S = 170.0


# -- child side ------------------------------------------------------------------------


def _load_program() -> workloads.Program:
    sys.path.insert(0, str(SRC))
    prog = workloads.Program()
    where = Path(prog.package.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported rimealg from {where}, not from {SRC}")
    return prog


def _gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def _run_items(prog, items, round_no, out, adjusted=False) -> None:
    """Run items in order and append one record each to ``out``.

    With ``adjusted``, the speed probe runs before every item and after the
    last, and each record also holds its item's adjusted time (``speed.py``).
    """
    probes = []
    first = len(out)
    for item in items:
        if adjusted:
            probes.append(speed.probe())
        try:
            outcome = workloads.run_item(prog, item, str(WORK_DIR))
        except Exception:  # an exception is a wrong answer; keep measuring
            traceback.print_exc(file=sys.stderr)
            out.append({"round": round_no, "kind": item.kind, "family": item.family,
                        "n": item.n, "latency_s": None, "verdicts": [],
                        "mismatches": ["exception: " + traceback.format_exc(limit=1)]})
            continue
        out.append({"round": round_no, "kind": item.kind, "family": item.family, "n": item.n,
                    "latency_s": outcome.latency_s, "verdicts": outcome.verdicts,
                    "mismatches": outcome.mismatches})
    if adjusted:
        probes.append(speed.probe())
        records = out[first:]
        # an item that raised has no time; the probes around it still count
        latencies = [rec["latency_s"] or 0.0 for rec in records]
        for rec, probe_s, value in zip(records, probes, speed.adjust(latencies, probes)):
            rec["probe_s"] = probe_s
            rec["adjusted_s"] = None if rec["latency_s"] is None else value


def child_main(role: str, workload: str, seed: int, seconds: int, t0: float) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    prog = _load_program()
    make_round = workloads.ROUNDS[workload]
    items = make_round(seed, 0)
    setup_s = time.monotonic() - t0
    # the machine's speed just after set-up, to adjust the set-up time by
    probe_s = statistics.median(speed.probe() for _ in range(SETUP_SPEED_PROBES))
    setup = {"setup_s": setup_s, "setup_adjusted_s": setup_s * speed.REFERENCE_PROBE_S / probe_s}
    if role == "setup":
        return setup

    records: list = []
    if role == "traced":
        import tracer as tracing

        tr = tracing.Tracer()
        tr.install(prog)
        start = time.perf_counter()
        try:
            for index, item in enumerate(items):
                tr.item = index
                _run_items(prog, [item], 0, records)
        finally:
            wall = time.perf_counter() - start
            tr.uninstall()
        tr.write(str(WORK_DIR / f"spans-{workload}-{seed}.json"))
        return {"records": records, "wall_s": wall, "layers": tr.layer_metrics()}

    gen2 = _gen2_collections()
    start = time.perf_counter()
    if role == "plain":
        _run_items(prog, items, 0, records)
        return {"records": records, "wall_s": time.perf_counter() - start,
                "gen2": _gen2_collections() - gen2}

    round_no = 0
    while True:
        round_start = time.perf_counter()
        _run_items(prog, items, round_no, records, adjusted=True)
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - round_start
        round_no += 1
        if elapsed >= seconds or elapsed + last > ROUND_START_LIMIT_S:
            break
        items = make_round(seed, round_no)  # untimed: outside every item
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"records": records, **setup, "rounds": round_no,
            "wall_s": time.perf_counter() - start, "rss_mb": rss_mb,
            "gen2": _gen2_collections() - gen2}


# -- parent side ------------------------------------------------------------------------


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("PYTHONPATH", "PYTHONSTARTUP", "RIME_MAX_N"):
        env.pop(key, None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(role: str, args, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting the " + role + " process")
    cmd = [sys.executable, "-s", str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {role} process did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the {role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _mismatch_count(records) -> int:
    return sum(1 for rec in records if rec["mismatches"])


def _report_mismatches(records) -> None:
    for rec in records:
        for msg in rec["mismatches"]:
            print(f"MISMATCH round={rec['round']} {rec['kind']} {rec['family']} "
                  f"n={rec['n']}: {msg}", file=sys.stderr)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _tail(latencies_ms) -> tuple:
    """The highest whole percentile with at least 10 samples beyond it.

    Returns the value, the percentile and the number of samples beyond it.
    """
    cuts = statistics.quantiles(latencies_ms, n=100)
    for pct in range(99, 0, -1):
        beyond = sum(1 for v in latencies_ms if v > cuts[pct - 1])
        if beyond >= TAIL_BEYOND:
            return cuts[pct - 1], pct, beyond
    raise BenchError(f"fewer than {TAIL_BEYOND + 1} latency samples")


def _timing_metrics(records, key: str, families) -> tuple:
    """Timing figures of one run from the item times stored under ``key``.

    Latency is per suite in ``sweep`` and per document in ``documents``; the
    tampered checks and limit curves of ``sweep`` count toward
    ``verdicts_per_s`` only.
    """
    timed = [rec for rec in records if rec[key] is not None]
    busy = sum(rec[key] for rec in timed)
    latencies_ms = [rec[key] * 1000.0 for rec in timed if rec["kind"] in ("suite", "document")]
    if len(latencies_ms) < 2 or busy <= 0:
        raise BenchError("too few items completed")
    tail, pct, beyond = _tail(latencies_ms)
    out = {
        "verdicts_per_s": sum(len(rec["verdicts"]) for rec in records) / busy,
        "latency_ms_p50": statistics.median(latencies_ms),
        "latency_ms_tail": tail,
    }
    # suite_s.F: seconds one round spends on family F (its suites, or its
    # documents), as the median over rounds; every round holds the same items
    per_round: dict = {}
    for rec in timed:
        if rec["kind"] in ("suite", "document"):
            slot = (rec["family"], rec["round"])
            per_round[slot] = per_round.get(slot, 0.0) + rec[key]
    for fam in families:
        values = [v for (f, _r), v in per_round.items() if f == fam]
        if not values:
            raise BenchError(f"no timed item of family {fam}")
        out[f"suite_s.{fam}"] = statistics.median(values)
    return out, f"p{pct} of {len(latencies_ms)} samples ({beyond} beyond)"


def end_to_end(args, units, deadline) -> tuple:
    families = [name.split(".", 1)[1] for name in units if name.startswith("suite_s.")]
    setups = [_spawn("setup", args, deadline) for _ in range(SETUP_PROBES)]
    run = _spawn("run", args, deadline)
    setups.append(run)
    records = run["records"]
    _report_mismatches(records)
    values, tail = _timing_metrics(records, "adjusted_s", families)
    raw, _raw_tail = _timing_metrics(records, "latency_s", families)
    values["setup_s"] = statistics.median(s["setup_adjusted_s"] for s in setups)
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    values["peak_rss_mb"] = run["rss_mb"]
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    metrics = {name: _metric(values[name], unit) for name, unit in units.items()}
    probes_ms = statistics.median(rec["probe_s"] for rec in records) * 1000.0
    failed = _mismatch_count(records)
    print(f"workload={args.workload} seed={args.seed} rounds={run['rounds']} "
          f"items={len(records)} wall_s={run['wall_s']:.3f} gen2_collections={run['gen2']} "
          f"probe_ms_p50={probes_ms:.3f}")
    print(f"failed_ratio={failed / len(records):.6f} ({failed}/{len(records)}) "
          f"latency_ms_tail={tail} "
          "setup_samples_s=" + ",".join(f"{s['setup_adjusted_s']:.4f}" for s in setups))
    print("unadjusted: " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    return len(records), failed, metrics


def per_layer(args, layer_units, deadline) -> tuple:
    traced = _spawn("traced", args, deadline)
    plain = _spawn("plain", args, deadline)
    failed = 0
    for records in (traced["records"], plain["records"]):
        _report_mismatches(records)
        failed = max(failed, _mismatch_count(records))
    digest = [[rec["kind"], rec["family"], rec["n"], rec["verdicts"]] for rec in traced["records"]]
    plain_digest = [[rec["kind"], rec["family"], rec["n"], rec["verdicts"]]
                    for rec in plain["records"]]
    differing = sum(1 for a, b in zip(digest, plain_digest) if a != b)
    differing += abs(len(digest) - len(plain_digest))
    if differing:
        print(f"MISMATCH traced and untraced verdicts differ on {differing} items",
              file=sys.stderr)
    layers = dict(traced["layers"])
    layers["core.gc_gen2_collections"] = plain["gen2"]
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    missing = set(layer_units) - set(layers)
    if missing:
        raise BenchError(f"tracer produced no value for {sorted(missing)}")
    metrics = {name: _metric(layers[name], unit) for name, unit in layer_units.items()}
    print(f"workload={args.workload} seed={args.seed} traced_wall_s={traced['wall_s']:.3f} "
          f"untraced_wall_s={plain['wall_s']:.3f} spans={layers['trace.spans']} "
          f"items={len(digest)}")
    return len(digest), failed + differing, metrics


def parent_main(args) -> int:
    if not (SRC / "rimealg" / "__init__.py").is_file():
        print(f"error: {SRC / 'rimealg'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            attempted, failed, metrics = per_layer(args, units, deadline)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            attempted, failed, metrics = end_to_end(args, units, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run", "traced", "plain"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.role is None:
        return parent_main(args)
    result = child_main(args.role, args.workload, args.seed, args.seconds, args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
