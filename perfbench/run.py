#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of FRED and the anonymization service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fred-linkage --seed 1 --seconds 20 --trace 0

One run sets the workload up three times, runs one untimed warm-up pass,
then timed passes until ``--seconds`` have passed (at least three), timing
one more (discarded) set-up after each; ``setup_s`` is the median of all
set-ups.  ``fred_s`` is the median over the timed passes; the
sub-second service metrics are trimmed means over the timed passes' service
sessions (``release_hit_ms`` over all their cached downloads), see
:func:`trimmed_mean`.  Every pass checks the program's outputs (see ``checks.py``); a
failed check is a failed operation.  With ``--trace 1`` the timed passes
alternate between untraced and traced, and the run prints the per-layer
metrics of the traced passes plus the tracing overhead instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
describes the machine.
"""

from __future__ import annotations

import os
import sys

# Single-threaded numerics, and no bytecode files written into the checkout.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_variable] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"

#: Set-ups before the warm-up pass; the run also times one set-up after
#: every timed pass, and ``setup_s`` is the median of all of them.
SETUPS = 3
#: Fewest timed passes per run (per kind, in traced runs).
MIN_PASSES = 3

#: End-to-end metrics measured per service session (trimmed mean over sessions).
SESSION_METRICS = ("register_s", "release_cold_s", "attack_s", "append_refresh_s")

END_TO_END = {
    "setup_s": "s",
    "fred_s": "s",
    "peak_rss_mb": "MB",
    "register_s": "s",
    "release_cold_s": "s",
    "release_hit_ms": "ms",
    "attack_s": "s",
    "append_refresh_s": "s",
}


def trimmed_mean(values) -> float:
    """Mean after dropping an eighth of the samples (at least one) at each end.

    This machine alternates between a fast and a ~1.5x slower state every
    fraction of a second to a few seconds.  A sub-second sample lands in one
    state, and the median of such samples jumps from one state to the other
    as their mix crosses one half; a trimmed mean moves with the mix and
    still ignores stray outliers.
    """
    ordered = sorted(values)
    drop = max(1, len(ordered) // 8) if len(ordered) >= 3 else 0
    kept = ordered[drop:len(ordered) - drop]
    return statistics.fmean(kept)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reference_loop_s": reference_loop(),
        "load_average": os.getloadavg()[0],
    }


class Run:
    """One workload's set-ups and passes in this process."""

    def __init__(self, workload: str, seed: int, work_dir: Path, trace: bool) -> None:
        import workloads

        self.w = workloads
        self.spec = workloads.WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        # On the in-process FRED workloads the pipeline layers are traced
        # inside FREDAnonymizer.run only, leaving out the service sessions.
        scope = "core.fred" if self.spec.fred else None
        self.tracer = tracing.Tracer(scope) if trace else None
        self.attempted = 0
        self.failed = 0
        self.index_build_s = 0.0
        self.server = None

    def setup(self, number: int, keep: bool = True) -> float:
        """Generate inputs, build the auxiliary source and start the server.

        With ``keep=False`` the set-up is timed and thrown away: the run
        takes one such sample after every timed pass, so that ``setup_s``
        is a median over moments spread through the run.
        """
        if keep and self.server is not None:
            self.server.close()
            self.server = None
        traced = self.tracer is not None and keep and number == SETUPS - 1
        gc.collect()
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        session = self.w.SessionInputs.generate(self.spec.session, self.seed)
        fred = self.w.build_fred(self.spec, self.seed) if self.spec.fred else None
        server = self.w.Server(self.work_dir / f"spill-{number}")
        seconds = time.perf_counter() - start
        if traced:
            self.tracer.remove()
            spans, _ = self.tracer.take("setup")
            self.index_build_s = sum(
                s.duration for s in spans if s.name == "linkage.index_build"
            )
        if keep:
            self.session, self.fred, self.server = session, fred, server
        else:
            server.close()
        return seconds

    def one_pass(self, index: int, traced: bool) -> dict | None:
        """One pass; returns its metrics (``None`` if the program raised)."""
        w = self.w
        sessions = self.spec.sessions
        inputs = [self.session.for_session(index * sessions + i) for i in range(sessions)]
        ops = w.Ops()
        client = self.server.client
        before = client.get("/stats")["cache"]
        uploaded = client.bytes_uploaded
        tracer = self.tracer if traced else None
        times, fred_s = [], None
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            for number, session_inputs in enumerate(inputs):
                if self.fred is not None and number == sessions // 2:
                    fred_s = w.run_fred(self.fred, ops)
                times.append(w.run_session(
                    self.server, self.spec.session, session_inputs, ops, tracer
                ))
        except w.PassAborted:
            times = None
        finally:
            if tracer is not None:
                tracer.remove()
        planned = self.spec.operations
        self.attempted += planned
        self.failed += ops.failed + (planned - ops.attempted)
        for reason in ops.reasons:
            print(f"failed: pass {index}: {reason}", file=sys.stderr)
        if times is None:
            return None
        result = {"fred_s": fred_s if fred_s is not None else times[0].fred_s,
                  "sessions": times}
        if tracer is not None:
            after = client.get("/stats")["cache"]
            extra = {
                metric: after[key] - before[key]
                for key, metric in tracing.CACHE_COUNTERS.items()
            }
            extra["dataset.bytes_in"] = client.bytes_uploaded - uploaded
            extra["service.spill_bytes"] = self.server.spill_bytes()
            extra["linkage.index_build_s"] = self.index_build_s
            spans, counts = tracer.take(f"pass {index}")
            result["layers"] = tracing.layer_metrics(spans, counts, extra, tracer.scope)
        return result

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.perf_counter()
    work_dir = STATE_DIR / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    bench = Run(workload, seed, work_dir, trace)
    try:
        setups = [bench.setup(number) for number in range(SETUPS)]
        print(f"setup: {[round(s, 4) for s in setups]}", file=sys.stderr)
        bench.one_pass(0, traced=False)  # warm-up: fills lazy caches
        print(f"warm-up done (at {time.perf_counter() - began:.1f} s)", file=sys.stderr)
        gc.collect()
        gc.freeze()  # inputs and warm caches live all run: keep them out of GC scans
        plain, traced = [], []
        start = time.perf_counter()
        index = 1
        while (
            len(plain) < MIN_PASSES
            or (trace and len(traced) < MIN_PASSES)
            or time.perf_counter() - start < seconds
        ):
            with_trace = trace and index % 2 == 0
            result = bench.one_pass(index, traced=with_trace)
            setups.append(bench.setup(len(setups), keep=False))
            if result is not None:
                (traced if with_trace else plain).append(result)
                summary = f"fred_s={result['fred_s']:.4f} " + " ".join(
                    f"{key}={statistics.mean(getattr(t, key) for t in result['sessions']):.4f}"
                    for key in SESSION_METRICS
                )
                print(f"pass {index}{' traced' if with_trace else ''}: {summary} "
                      f"(at {time.perf_counter() - began:.1f} s)", file=sys.stderr)
            index += 1
    finally:
        bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if bench.tracer is not None:
        bench.tracer.dump(STATE_DIR / "traces" / f"{workload}-seed{seed}.json")
    if not plain or (trace and not traced):
        raise SystemExit("error: every pass of the run failed")

    if trace:
        layers = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in tracing.LAYER_METRICS
        }
        untraced = statistics.median(p["fred_s"] for p in plain)
        with_spans = statistics.median(p["fred_s"] for p in traced)
        layers["trace.fred_untraced_s"] = untraced
        layers["trace.fred_traced_s"] = with_spans
        layers["trace.overhead_pct"] = (with_spans / untraced - 1.0) * 100.0
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in tracing.LAYER_METRICS.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "release_hit_ms": 1000.0 * trimmed_mean(
                latency for p in plain for t in p["sessions"] for latency in t.hit_latencies
            ),
            "fred_s": statistics.median(p["fred_s"] for p in plain),
        }
        for key in SESSION_METRICS:
            values[key] = trimmed_mean(getattr(t, key) for p in plain for t in p["sessions"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker, if one was started, and reap it.

    ``GET /stats`` probes shared memory once per process, and creating the
    probe segment spawns the resource tracker as a child process.  It would
    otherwise outlive this run by the moment it takes to notice the exit.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine()))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
