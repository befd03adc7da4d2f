"""One cold pass of one workload in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <mode: 0 untraced, 1 traced, setup>

Prints one JSON line: the set-up time (from the first line of this script,
before `kloosterman` is imported, until the op list is built) with a gauge
reading taken right after it, and unless the mode is `setup`, the wall and
CPU time of the ops with oracle checks and probes excluded, the peak
resident memory of this process, the op verdicts, and with tracing the
spans.  `perfbench/run.py` starts fresh workers for every pass, so every
pass starts with the library's in-process caches empty, as a user's new
process does.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def gauge() -> float:
    """Host speed now: the fastest of three short fixed chunks of interpreter work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc, seen = 0, {}
        for i in range(20000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            seen[acc & 1023] = i
        times.append(time.perf_counter() - start)
    return min(times)


def run_pass(ops, tracer) -> dict:
    """Run every op once; a failed or raising op is counted and the pass goes on.

    The gauge is read before each op and after the last one, outside the
    timed intervals.  Each op records the mean of the readings around it; the
    pass records their median.
    """
    wall = cpu = 0.0
    verdicts = []
    readings = [gauge()]
    for i, op in enumerate(ops):
        tracer.op = i
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.span("op"):
                out = op.run(tracer)
            error = None
        except Exception:
            error = traceback.format_exc()
        c1, w1 = time.process_time(), time.perf_counter()
        readings.append(gauge())
        wall += w1 - w0
        cpu += c1 - c0
        if error is None:
            try:
                ok = bool(op.check(out))
            except Exception:
                ok, error = False, traceback.format_exc()
        else:
            ok = False
        if error is not None:
            print(f"op {op.label} raised:\n{error}", file=sys.stderr)
        if op.probes is not None and tracer.enabled and error is None:
            tracer.probe = True
            with tracer.span("probes"):
                op.probes(tracer)
            tracer.probe = False
        gauge_s = (readings[-2] + readings[-1]) / 2
        verdicts.append({"label": op.label, "ok": ok, "wall_s": w1 - w0, "cpu_s": c1 - c0, "gauge_s": gauge_s})
    return {
        "gauge_s": statistics.median(readings),
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": len(ops),
        "failed": sum(not v["ok"] for v in verdicts),
        "ops": verdicts,
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    import kloosterman

    if Path(kloosterman.__file__).resolve().parent != ROOT / "src" / "kloosterman":
        print(f"kloosterman imported from {kloosterman.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    ops = workloads.build(name, seed)
    setup = {"setup_s": time.perf_counter() - T0, "setup_gauge_s": gauge()}
    if mode == "setup":
        print(json.dumps(setup))
        return 0
    result = run_pass(ops, Tracer(mode == "1")) | setup
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
