#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent OLD --change NEW \\
        --workload mkor-ae256-p1 --pairs 10 --seed 0 --out BENCH_5.json

Each pair runs ``kronbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one after the other, with T the
``run_seconds`` of ``BENCHMARK.json``; even pairs run the parent first, odd
pairs the change, so neither side always runs warmer.
From each run's printed table it records the scaled metrics, their raw
wall-clock values and the reference-kernel reading the times were scaled
from.  It prints, per metric, each side's median with its quartiles and the
number of pairs the change wins, by the direction ``BENCHMARK.json`` gives.

``--out`` names a JSON file; an existing one keeps its other entries, and
the entry for this workload and seed is replaced.  ``--note`` is stored with
the entry, to say what the two checkouts hold.  Each side's ``env`` records
``tree_sha256``, a hash of the program's sources (:func:`tree_hash`), which
names a checkout that has no ``.git``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_output(stdout: str) -> dict:
    """One run's record from ``kronbench/run.py``'s standard output: the
    result line's fields, each metric's raw wall-clock value beside its scaled
    one, the reference kernel's time and the environment line."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("no result line in run.py's output")
    run = json.loads(lines[-1])
    raw = {}
    for line in lines:
        words = line.split()
        if line.startswith("env "):
            run["env"] = json.loads(line[len("env "):])
        elif words[:5] == ["times", "scaled", "from", "a", "reference"]:
            run["reference_ms"] = float(words[7])
        elif words and words[0] in run["metrics"] and "(raw wall clock" in line:
            raw[words[0]] = float(line.rsplit(" ", 1)[1].rstrip(")"))
    for name, value in raw.items():
        run["metrics"][name]["raw"] = value
    return run


def tree_hash(checkout: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of the checkout's
    ``src/kronopt/*.py`` and ``src/kronopt/_pinned.c``: equal for two copies
    of one tree wherever they sit."""
    src = checkout / "src" / "kronopt"
    digest = hashlib.sha256()
    for path in sorted([*src.glob("*.py"), src / "_pinned.c"]):
        body = path.read_bytes()
        digest.update(f"{path.relative_to(checkout).as_posix()}\0{len(body)}\0".encode())
        digest.update(body)
    return digest.hexdigest()


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "kronbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_output(proc.stdout)
    except ValueError as exc:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}") from exc


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric and per reading (scaled ``value``, ``raw``): each side's
    median and quartiles, and the pairs in which the change is strictly
    better.  run.py prints a raw value only where it differs from the scaled
    one, so a missing raw value is the scaled one."""
    out = {}
    for name in parent[0]["metrics"]:
        for reading in ("value", "raw"):
            if not any(reading in r["metrics"][name] for r in parent + change):
                continue
            p, c = ([r["metrics"][name].get(reading, r["metrics"][name]["value"]) for r in runs]
                    for runs in (parent, change))
            lower = better.get(name, "lower") == "lower"
            wins = sum(cv < pv if lower else cv > pv for pv, cv in zip(p, c))
            key = name if reading == "value" else f"{name} (raw)"
            out[key] = {"parent": quartiles(p), "change": quartiles(c), "change_wins": wins}
    refs = {side: [r["reference_ms"] for r in runs] for side, runs in zip(SIDES, (parent, change))}
    out["reference_ms"] = {side: quartiles(v) for side, v in refs.items()}
    return out


def print_summary(label: str, summary: dict, pairs: int) -> None:
    print(f"{label}: median [q1, q3] parent -> change, pairs the change wins of {pairs}")
    for key, s in summary.items():
        p, c = s["parent"], s["change"]
        line = (f"  {key:32s} {p['median']:<12.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
                f"{c['median']:<12.6g} [{c['q1']:.6g}, {c['q3']:.6g}]")
        if "change_wins" in s:
            line += f"  {s['change_wins']}/{pairs}"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = {side: [] for side in SIDES}
    trees = {side: tree_hash(getattr(args, side)) for side in SIDES}
    env = {}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = getattr(args, side)
            run = run_bench(checkout, args.workload, args.seed, seconds)
            env.setdefault(side, {**(run.pop("env", None) or {}), "tree_sha256": trees[side]})
            run.update(pair=pair, first=order[0])
            runs[side].append(run)
            step = run["metrics"].get("step_ms.p50", {})
            print(f"pair {pair} {side}: step_ms.p50 {step.get('value', float('nan')):.4g} "
                  f"(raw {step.get('raw', float('nan')):.4g}), reference kernel "
                  f"{run.get('reference_ms', float('nan')):.4g} ms", flush=True)

    label = f"{args.workload} --seed {args.seed}"
    failed = sum(not r["correct"] for side in SIDES for r in runs[side])
    if failed:
        print(f"{label}: {failed} runs failed an output check; no summary", file=sys.stderr)
        summary = None
    else:
        summary = summarize(runs["parent"], runs["change"], better)
        print_summary(label, summary, args.pairs)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", "python3 kronbench/run.py --workload W --seed S "
                              "--seconds T --trace 0")
    doc.setdefault("workloads", {})[label] = {
        "note": args.note, "seconds": seconds, "pairs": args.pairs, "env": env,
        "summary": summary, **runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
