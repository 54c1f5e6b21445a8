"""The repo benchmark: five workloads, end-to-end metrics, a layer trace.

    python benchmarks/observatory/run.py                 # whole suite
    python benchmarks/observatory/run.py --workload train_text --seed 3
    python benchmarks/observatory/run.py --workload serve_text_zipf --traced
    python benchmarks/observatory/run.py --smoke         # tiny, < 30 s

One invocation with ``--workload`` sets the workload up (several times,
the median is ``setup_s``), measures it for ``--seconds``, checks every
output against an independent reference, prints every metric by name
with unit, sample count, median and quartiles, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}`` holding the
``BENCHMARK.json`` end-to-end metrics (``--trace 0``) or per-layer
metrics (``--trace 1`` / ``--traced``).  Without ``--workload`` every
workload runs in a process of its own.  See ``README.md`` beside this
file for the metric glossary.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # the set-up clock starts before the library

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# Dense numbers must measure this repository's code, not the BLAS
# thread pool: pin before numpy is imported (workers inherit it).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if os.path.isdir(_path) and _path not in sys.path:
        sys.path.insert(0, _path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, "
                        "each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds of "
                        "BENCHMARK.json, 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1: the per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code paths, no metric claims")
    parser.add_argument("--out", help="append this run to a JSON result "
                        "file (input of compare.py)")
    parser.add_argument("--trace-dir",
                        default=os.path.join(HERE, "traces"),
                        help="where the traced run writes Chrome traces")
    parser.add_argument("--update-expected", action="store_true",
                        help="record this seed's reference digests under "
                        "expected/")
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    return args


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def run_workload(args, benchmark) -> int:
    import harness
    import spec

    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(benchmark["run_seconds"])

    import serving
    import training
    from repro.core.backends import (
        shutdown_actor_pools,
        shutdown_worker_pools,
    )

    import_s = time.perf_counter() - _T0
    shm_before = harness.shm_segments()
    env = harness.env_info(ROOT)
    sizes = spec.sizes_for(args.workload, args.smoke)
    if args.trace:  # Chrome traces and the FitStore save/load probe
        os.makedirs(args.trace_dir, exist_ok=True)
    sizes["tmp_dir"] = args.trace_dir
    samples = harness.Samples()
    cls = {**training.WORKLOADS, **serving.WORKLOADS}[args.workload]
    workload = cls(sizes, args.seed, samples)
    rec = harness.Recorder() if args.trace else harness.NULL
    ok = True
    try:
        repeats = 1 if args.smoke else spec.SETUP_REPEATS
        setups = []
        for k in range(repeats):
            if k:
                workload.teardown()
            setups.append(harness.timed(workload.setup)[1])
        samples.extend("setup.repeat_s", setups)
        samples.set("setup_s", import_s + statistics.median(setups))
        samples.set("setup.import_s", import_s)

        harness.quiesce()
        measure_seconds = seconds * 0.5 if args.trace else seconds
        workload.measure(measure_seconds, rec)
        workload.finish()
        workload.verify()
        if args.trace:
            workload.probes(rec)
            workload.verify()
        samples.set("peak_rss_mb", harness.peak_rss_mb())
    except Exception:
        import traceback

        traceback.print_exc()
        ok = False
    finally:
        try:
            workload.close()
        finally:
            shutdown_actor_pools()
            shutdown_worker_pools()
    leaks = harness.leaked_children()
    leaks += sorted(harness.shm_segments() - shm_before)
    samples.attempt()
    if leaks:
        samples.fail(f"outlived the run: {leaks}")
    if not ok:
        return 1

    derive_metrics(samples, rec)
    env["loadavg_end"] = list(os.getloadavg())
    digest_note = check_expected(args, workload, env)
    if digest_note:
        samples.notes.append(digest_note)
    valid = not any(note.startswith("INVALID") for note in samples.notes)
    if args.trace:
        path = os.path.join(args.trace_dir,
                            f"{args.workload}-seed{args.seed}.trace.json")
        from repro.obs import trace as obs_trace

        library = obs_trace.chrome_trace(workload.library_spans)
        rec.export_chrome_trace(path, extra=library["traceEvents"])
        samples.notes.append(f"chrome trace: {os.path.relpath(path, ROOT)}")

    group = "per_layer" if args.trace else "end_to_end"
    report = build_report(args, benchmark, samples, env, sizes, seconds,
                          valid)
    print_table(report, benchmark, group)
    if args.trace:
        print_top_costs(workload, samples)
        print_self_times(rec)
    if args.out:
        append_result(args.out, report)
    correct = samples.failed == 0
    metrics = {m["name"]: {"value": report["metrics"].get(
                   m["name"], {"median": 0.0})["median"], "unit": m["unit"]}
               for m in benchmark[group]}
    print(json.dumps({"correct": correct, "attempted": samples.attempted,
                      "failed": samples.failed, "metrics": metrics}))
    return 0 if correct else 1


def derive_metrics(samples, rec) -> None:
    """Metrics computed from the samples (and spans) of the whole run."""
    v = samples.values
    # One unit of the workload's work, step by step: a stall of the
    # machine spoils one step's sample, not the whole round's.
    samples.set("work_s", sum(statistics.median(values)
                              for name, values in v.items()
                              if name.startswith("step.")))
    samples.set("e2e.failed_share",
                samples.failed / max(samples.attempted, 1))
    if not rec.enabled:
        return
    passes_total = 0.0
    for name in ("CSEPass", "OperatorSelectionPass", "MaterializationPass"):
        durations = rec.durations(f"core.passes.{name}.run")
        if durations:
            samples.extend(f"core.passes.{name}.run_s", durations)
            passes_total += sum(durations)
    fits = sum(sum(rec.durations(label))
               for label in ("fit", "fit_store", "refit"))
    if fits:
        # the layers a fit is cut into against the fit itself
        executes = sum(rec.durations("core.backends.execute"))
        samples.set("bench.trace.reconcile_share",
                    (passes_total + executes) / fits)
    if v.get("round_traced_s"):
        samples.set("bench.trace.overhead_share",
                    statistics.median(v["round_traced_s"])
                    / statistics.median(v["round_s"]) - 1.0)
    samples.set("bench.trace.spans", len(rec.spans))


def check_expected(args, workload, env):
    """Compare (or record) the committed reference digest of this seed.

    Digests are only comparable on the numeric stack that produced them
    (BLAS picks its kernels by CPU), so a file written under another
    numpy / scipy / machine / CPU model is skipped.
    """
    if args.smoke:
        return None
    path = os.path.join(HERE, "expected", f"seed-{args.seed}.json")
    stack = {k: env[k] for k in ("numpy", "scipy", "machine", "cpu")}
    doc = {"stack": stack, "digests": {}}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    if args.update_expected:
        if doc.get("stack") != stack:
            doc = {"stack": stack, "digests": {}}
        doc["digests"][args.workload] = workload.reference_digest
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        return f"recorded reference digest in {os.path.relpath(path, ROOT)}"
    want = doc["digests"].get(args.workload)
    if want is None or doc.get("stack") != stack:
        return None
    if want != workload.reference_digest:
        # Not a failed operation: every output was already compared with
        # the live reference, and equal version strings do not prove an
        # equal BLAS kernel.  It says the reference itself has moved.
        return (f"REFERENCE MOVED: digest {workload.reference_digest[:12]} "
                f"differs from the committed {want[:12]} for seed "
                f"{args.seed}; if the change is meant, --update-expected")
    return "reference digest matches expected/"


def build_report(args, benchmark, samples, env, sizes, seconds, valid):
    import harness

    metrics = {name: harness.summarize(values)
               for name, values in sorted(samples.values.items()) if values}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke, "valid": valid,
        "correct": samples.failed == 0, "attempted": samples.attempted,
        "failed": samples.failed, "failures": samples.failures,
        "notes": samples.notes, "env": env,
        "sizes": {k: v for k, v in sizes.items() if k != "tmp_dir"},
        "metrics": metrics,
    }


def print_table(report, benchmark, group) -> None:
    import spec

    listed = [m["name"] for m in benchmark[group]]
    others = [n for n in report["metrics"] if n not in listed]
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"seconds={report['seconds']}  trace={report['trace']}"
          f"{'  SMOKE (no metric claims)' if report['smoke'] else ''}")
    print(f"{'metric':<46} {'unit':<7} {'n':>6} {'median':>13} "
          f"{'q1':>13} {'q3':>13}")
    absent = {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    for name in listed + ["--"] + others:
        if name == "--":
            print("-- other samples of this run")
            continue
        row = report["metrics"].get(name, absent)
        print(f"{name:<46} {spec.unit_of(name, benchmark):<7} "
              f"{row['n']:>6} {row['median']:>13.6g} {row['q1']:>13.6g} "
              f"{row['q3']:>13.6g}")
    print(f"attempted={report['attempted']} failed={report['failed']} "
          f"valid={report['valid']}")
    for line in report["failures"]:
        print(f"FAILED: {line}")
    for line in report["notes"]:
        print(f"note: {line}")


def print_top_costs(workload, samples) -> None:
    """The ranked "top five costs" of this workload (layer run)."""
    costs = {}
    model = getattr(workload, "last_model", None)
    if model is not None:
        report = model.training_report
        for nid, seconds in report.node_seconds.items():
            label = f"op {report.node_labels.get(nid, nid)}"
            costs[label] = costs.get(label, 0.0) + seconds
        for decision in workload.last_plan.decisions:
            costs[f"pass {decision.name}"] = decision.seconds
        unit = "s per fit"
    else:
        for name in ("serving.server.submit_us",
                     "serving.cache.fingerprint_us",
                     "serving.cache.lookup_hit_us",
                     "serving.cache.lookup_miss_us", "serving.cache.put_us",
                     "serving.compiler.run_batch_us_per_row",
                     "serving.compiler.run_item_us"):
            costs[name] = samples.median(name)
        costs["serving.batcher.residual_ms (as us)"] = (
            samples.median("serving.batcher.residual_ms") * 1e3)
        unit = "us per request"
    print(f"-- top five costs ({unit})")
    for label, value in sorted(costs.items(), key=lambda kv: -kv[1])[:5]:
        print(f"   {value:>12.6g}  {label}")


def print_self_times(rec) -> None:
    """Where the traced rounds spent their time: per span name, the sum
    of self times (a span's duration minus its children's)."""
    totals = {name: sum(values)
              for name, values in rec.self_seconds().items()}
    print("-- span self time over the traced rounds (s)")
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1])[:8]:
        print(f"   {seconds:>12.6g}  {name}")


def append_result(path, report) -> None:
    doc = {"runs": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc["runs"].append(report)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def run_suite(args, benchmark) -> int:
    """Every workload in a fresh process (own peak RSS, own GC state)."""
    status = 0
    for entry in benchmark["workloads"]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", entry["name"], "--seed", str(args.seed),
                   "--trace", str(args.trace),
                   "--trace-dir", args.trace_dir]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        if args.out:
            command += ["--out", args.out]
        if args.update_expected:
            command.append("--update-expected")
        print(f"\n# {entry['name']}: {entry['why']}", flush=True)
        code = subprocess.run(command, cwd=ROOT).returncode
        if code:
            print(f"# {entry['name']} exited with {code}", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no src/repro under {ROOT}: the benchmark measures this "
              "repository's library and cannot run without it",
              file=sys.stderr)
        return 2
    import spec

    benchmark = spec.load_benchmark()
    if args.workload is None:
        return run_suite(args, benchmark)
    try:
        return run_workload(args, benchmark)
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """End multiprocessing's helper process before this one exits, so
    nothing this run started outlives it."""
    try:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    except Exception:  # best effort: it exits with its parent anyway
        pass


# Spawn-started actor workers re-import this file: everything above must
# stay import-safe and the entry point guarded.
if __name__ == "__main__":
    sys.exit(main())
