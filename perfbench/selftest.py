"""Self-test of the benchmark's tracer and counters.

Run from the root of a checkout::

    python3 perfbench/selftest.py [--workload W ...] [--seed N]

It checks that

1. installing the tracer replaces each traced name where callers look it up
   (``rimealg.verify.embed``, ``rimealg.core.kron``, ``rimealg.cli.run_suite``,
   ``rimealg.cli.check_ybe``, ``Operator.__matmul__``/``__add__``/``__sub__``)
   and that uninstalling puts every original object back;
2. two ``--trace 1`` runs of one seed report identical counts, and each of them
   gives the same verdicts traced as untraced (``run.py`` fails otherwise);
3. every metric named in ``layer_map.json`` is declared in ``BENCHMARK.json``.

Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check_patching() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    prog = workloads.Program()
    op = prog.core.Operator
    looked_up = {
        "rimealg.verify.embed": (prog.verify, "embed"),
        "rimealg.core.kron": (prog.core, "kron"),
        "rimealg.cli.run_suite": (prog.cli, "run_suite"),
        "rimealg.cli.check_ybe": (prog.cli, "check_ybe"),
        "Operator.__matmul__": (op, "__matmul__"),
        "Operator.__add__": (op, "__add__"),
        "Operator.__sub__": (op, "__sub__"),
    }
    before = {name: vars(owner)[attr] for name, (owner, attr) in looked_up.items()}
    tr = tracer.Tracer()
    tr.install(prog)
    problems = [f"{name} is not traced" for name, (owner, attr) in looked_up.items()
                if vars(owner)[attr] is before[name]]
    tr.uninstall()
    problems += [f"{name} was not restored" for name, (owner, attr) in looked_up.items()
                 if vars(owner)[attr] is not before[name]]
    return problems


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-test of the benchmark tracer")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # counts are everything the tracer reports that is not a time
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]

    problems = check_patching()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text(encoding="utf-8"))
    for entry in layer_map["map"]:
        for name in entry["layer_metrics"] + [m["metric"] for m in entry["moves"]]:
            if name not in declared:
                problems.append(f"layer_map.json names undeclared metric {name}")
    for workload in args.workload or sorted(workloads.ROUNDS):
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for label, result in (("first", first), ("second", second)):
            if not result["correct"]:
                problems.append(f"{workload}: {label} traced run was not correct")
        for name in counts:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a is None or a != b:
                problems.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
        print(f"{workload}: {len(counts)} counts compared", flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
