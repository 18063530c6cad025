"""One pass of a workload, in a fresh interpreter: set up, run, judge.

    python3 bench/one_pass.py WORKLOAD SEED SCALE MODE WORKDIR OUT

MODE is ``setup`` (stop after set-up), ``timed`` or ``traced``.  The pass
writes its measurements and the verdict on every operation to OUT as JSON;
a traced pass also writes its spans next to it.  Operations run one after
another in this process, with no threads.  Set-up and the operations of a
timed pass are timed both raw and scaled to the host's sampled speed
(see speed.py); a traced pass is timed raw only, with no sampling.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent


def _instances(doc: dict) -> int:
    """Solver instances a verify or tau result document reports."""
    payload = doc["payload"]
    if doc["kind"] == "verify":
        return sum(row["instances"] for row in payload["rows"])
    # homotopy searches, product fills and audited representative pairs
    return (len(payload["elements"]) ** 2 + len(payload["classes"]) ** 2
            + sum(cell["pairs_tested"] for cell in payload["audit"]["cells"]))


def _where(exc: BaseException) -> str:
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = Path(tb.tb_frame.f_code.co_filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        pass
    return f"{path}:{tb.tb_lineno}"


def run_pass(workload: str, seed: int, scale: str, mode: str,
             work: Path) -> tuple[dict, object]:
    wl = Workload(workload, seed, scale, work)
    probe = SpeedProbe().start()
    raw0, scaled0 = probe.mark()
    sys.path.insert(0, str(ROOT / "src"))
    import complicial
    from complicial import cli

    src = (ROOT / "src" / "complicial").resolve()
    if Path(complicial.__file__).resolve().parent != src:
        raise RuntimeError(f"imported {complicial.__file__}, not {src}")
    wl.setup(cli)
    raw1, scaled1 = probe.mark()
    result: dict = {"setup_s": scaled1 - scaled0, "setup_raw_s": raw1 - raw0}
    if mode != "timed":
        probe.stop()
    if mode == "setup":
        return result, None

    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        op_span = tracer.name_id("bench.op")
    records = []
    for op in wl.ops:
        span = tracer.open(op_span) if tracer else None
        before = probe.mark() if not tracer else None
        t = time.perf_counter()
        code, error = None, None
        try:
            code = op.run()
        except Exception as exc:  # one broken operation must not stop the pass
            error = {"type": type(exc).__name__, "message": str(exc),
                     "where": _where(exc)}
        elapsed = time.perf_counter() - t
        rec = {"name": op.name, "s": elapsed, "scaled_s": None, "exit": code,
               "error": error}
        if tracer:
            tracer.close(span)
        else:
            after = probe.mark()
            rec["s"], rec["scaled_s"] = (after[0] - before[0],
                                         after[1] - before[1])
        records.append(rec)
    if not tracer:
        probe.stop()
        result["wall_s"] = sum(rec["scaled_s"] for rec in records)
        result["speed_samples"] = len(probe.samples)
    result["raw_wall_s"] = sum(rec["s"] for rec in records)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)

    instances = solver_s = 0.0
    for op, rec in zip(wl.ops, records):
        rec["failed"] = (rec["error"] is not None
                         or rec["exit"] != op.expect_exit)
        rec["sha256"] = rec["problems"] = None
        if rec["error"] is None and op.output.exists():
            data = op.output.read_bytes()
            rec["sha256"] = hashlib.sha256(data).hexdigest()
            doc = json.loads(data)
            rec["problems"] = op.check(doc)
            if op.solver:
                instances += _instances(doc)
                solver_s += rec["s" if tracer else "scaled_s"]
        elif rec["error"] is None:
            rec["problems"] = [f"{op.output.name} was not written"]
        if rec["error"] is None and rec["exit"] != op.expect_exit:
            rec["problems"].append(
                f"exit code {rec['exit']}, expected {op.expect_exit}")
        rec["verdict_ok"] = rec["error"] is None and not rec["problems"]
    result.update(ops=records, instances=instances, solver_s=solver_s)
    if tracer:
        result["layers"] = tracer.metrics()
    return result, tracer


def main(argv: list[str]) -> int:
    workload, seed, scale, mode, work, out = argv
    result, tracer = run_pass(workload, int(seed), scale, mode, Path(work))
    out = Path(out)
    out.write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        tracer.write(out.with_name(out.stem + "-spans.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
