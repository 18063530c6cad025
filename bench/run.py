"""Run one workload of the benchmark and print its metrics.

    python3 bench/run.py --workload {verify,tau,pipeline} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/``.  Passes run one after another, each in a fresh interpreter, as
long as the next one is expected to end within S seconds (at least one
pass); set-up-only processes fill the rest.  With ``--trace 0`` no pass is
traced and the last line of the output is a JSON object with the
end-to-end metrics of BENCHMARK.json, timed in seconds scaled to the
host's sampled speed (speed.py); with ``--trace 1`` untraced and traced
passes alternate and the object holds the per-layer metrics, tracing
overhead included.  Each run also writes a record with every operation's
verdict, result digest and timing under ``bench/_runs/``.  See README.md
for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import SIZES, WORKLOADS  # noqa: E402

MIN_SETUPS = 7          # set-up is measured at least this often per run
PASS_TIMEOUT_S = 150    # a pass that takes longer is a hang


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def _child(args, mode: str, index: int, work: Path, runs: Path) -> dict:
    """Run one pass in a fresh interpreter and return what it measured."""
    out = runs / f"pass{index}.json"
    cmd = [sys.executable, str(BENCH / "one_pass.py"), args.workload,
           str(args.seed), args.scale, mode, str(work / f"pass{index}"),
           str(out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    shutil.rmtree(work / f"pass{index}", ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited with {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def _passes(args, work: Path, runs: Path) -> tuple[list, list]:
    modes = ["timed", "traced"] if args.trace else ["timed"]
    passes: list[tuple[str, dict]] = []
    setups: list[float] = []
    index = 0

    def child(mode: str) -> dict:
        nonlocal index
        index += 1
        result = _child(args, mode, index, work, runs)
        setups.append(result["setup_s"])
        return result

    start = time.monotonic()
    # a pass and a set-up sample, so that set-up samples spread over the
    # run; another round only if it should end within the run's seconds
    while len(passes) < len(modes) or (
            (time.monotonic() - start) * (len(passes) + 1) / len(passes)
            <= args.seconds):
        mode = modes[len(passes) % len(modes)]
        passes.append((mode, child(mode)))
        child("setup")
    # set-up samples fill what is left of the run's seconds
    while True:
        begun = time.monotonic()
        child("setup")
        end = time.monotonic()
        if (len(setups) >= MIN_SETUPS
                and end + (end - begun) > start + args.seconds):
            return passes, setups


def _digests(passes) -> tuple[list, bool]:
    """Per operation, the result digests seen across the passes."""
    names = [rec["name"] for rec in passes[0][1]["ops"]]
    seen = [sorted({p["ops"][i]["sha256"] or "-" for _, p in passes})
            for i in range(len(names))]
    return ([{"op": n, "sha256": s} for n, s in zip(names, seen)],
            all(len(s) == 1 for s in seen))


def _layer(layers: dict, name: str) -> float:
    if name in layers:
        return layers[name]
    if f"{name.rsplit('.', 1)[0]}.calls" in layers:
        return 0.0              # a work count of a function never called
    raise RuntimeError(f"per-layer metric {name} is not measured")


def summarize(args, passes, setups, specs) -> tuple[dict, dict]:
    """The result line and the run record."""
    ops = [rec for _, p in passes for rec in p["ops"]]
    attempted = len(ops)
    failed = sum(rec["failed"] for rec in ops)
    verdicts_ok = sum(rec["verdict_ok"] for rec in ops)
    digests, stable = _digests(passes)
    wrong = [rec for rec in ops
             if rec["error"] is None and not rec["verdict_ok"]]
    timed = [p for mode, p in passes if mode == "timed"]
    med = statistics.median
    if args.trace:
        traced = [p for mode, p in passes if mode == "traced"]
        layers = {}
        for name in specs["per_layer"]:
            if name.startswith("trace."):
                continue
            layers[name] = med(_layer(p["layers"], name) for p in traced)
        layers["trace.wall_s"] = med(p["raw_wall_s"] for p in traced)
        layers["trace.untraced_wall_s"] = med(p["raw_wall_s"]
                                              for p in timed)
        layers["trace.overhead_ratio"] = (layers["trace.wall_s"]
                                          / layers["trace.untraced_wall_s"])
        layers["trace.spans"] = med(p["layers"]["trace.spans"] for p in traced)
        values, units = layers, specs["per_layer"]
    else:
        values = {
            "setup_s": med(setups),
            "wall_s": med(p["wall_s"] for p in timed),
            # work over time across the run, not a median of per-pass
            # ratios: the solver operations of `pipeline` are short
            "instances_per_s": (sum(p["instances"] for p in timed)
                                / sum(p["solver_s"] for p in timed)),
            "peak_rss_mb": med(p["peak_rss_mb"] for p in timed),
            "ops_ok_frac": (attempted - failed) / attempted,
            "verdicts_ok_frac": verdicts_ok / attempted,
        }
        units = specs["end_to_end"]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    line = {
        "correct": stable and not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    failures = sorted({(rec["name"], rec["error"]["type"],
                        rec["error"]["where"]) for rec in ops if rec["error"]})
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "python": sys.version.split()[0],
        "cpus": os.cpu_count(), "passes": [mode for mode, _ in passes],
        "setups_s": setups,
        "raw_medians_s": {
            "setup": med(p["setup_raw_s"] for _, p in passes),
            "wall": med(p["raw_wall_s"] for p in timed),
        },
        "digests_stable": stable, "digests": digests,
        "exceptions": [{"op": n, "type": t, "where": w}
                       for n, t, w in failures],
        "result": line, "pass_records": [p for _, p in passes],
    }
    return line, record


def _report(record: dict) -> None:
    """Human-readable lines ahead of the result line."""
    print(f"# {record['workload']} seed {record['seed']}: "
          f"{len(record['passes'])} passes, python {record['python']}, "
          f"{record['cpus']} cpus")
    first = record["pass_records"][0]["ops"]
    for i, rec in enumerate(first):
        secs = statistics.median(p["ops"][i]["s"]
                                 for p in record["pass_records"])
        scaled = [p["ops"][i]["scaled_s"] for p in record["pass_records"]
                  if p["ops"][i]["scaled_s"] is not None]
        scaled = f"{statistics.median(scaled):8.3f}" if scaled else " " * 8
        digest = ",".join(d[:12] for d in record["digests"][i]["sha256"])
        verdict = "ok" if rec["verdict_ok"] else (
            rec["error"]["type"] if rec["error"] else "WRONG")
        print(f"#  {secs:8.3f} s raw {scaled} s scaled  {verdict:10} "
              f"{digest}  {rec['name']}")
    for exc in record["exceptions"]:
        print(f"# exception {exc['type']} at {exc['where']} in {exc['op']}")
    wrong = {(rec["name"], problem) for p in record["pass_records"]
             for rec in p["ops"] for problem in rec["problems"] or ()}
    for name, problem in sorted(wrong):
        print(f"# wrong: {name}: {problem[:300]}")
    if not record["digests_stable"]:
        print("# result digests differ between passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="'smoke' shrinks every input, for the tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "complicial" / "__init__.py").is_file():
        print(f"error: no complicial sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    specs = _metric_specs()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / f"{tag}-{os.getpid()}"
    runs = BENCH / "_runs" / tag
    shutil.rmtree(runs, ignore_errors=True)
    runs.mkdir(parents=True)
    try:
        passes, setups = _passes(args, work, runs)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line, record = summarize(args, passes, setups, specs)
    (runs / "run.json").write_text(json.dumps(record, indent=1),
                                   encoding="utf-8")
    _report(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
