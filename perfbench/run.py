"""nnadc benchmark: stage training and pipeline inference.

Usage, from the repository root::

    python3 perfbench/run.py --workload stage_train --seed 0 --seconds 40 --trace 0

One run is one fresh process and one workload.  It imports the library
from ``src/``, prepares the workload's inputs, sets the workload up, then
repeats rounds of timed operations in a closed loop until the rounds have
taken ``--seconds`` (at least one round).  The set-up is repeated
``SETUP_REPEATS`` times in all, spread evenly between the rounds, so that
its fastest repeat, like the fastest operation, is taken across the whole
run.  Every output is checked.

``--trace 0`` measures with no instrumentation and reports the
end-to-end metrics.  ``--trace 1`` installs span wrappers around the
library's public functions (see ``tracing.py``) and reports per-layer
metrics instead.  ``--record`` (traced runs only) stores the run's
fingerprints and refinement counters as the expected values for its
seed; a recording run checks nothing against them and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment record (and the spans, when traced), is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 32
# a fresh interpreter that imports numpy, then times importing every
# library module the workloads use; argv holds the library's directory
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; import numpy; "
    "t = time.perf_counter(); "
    "import nnadc.config, nnadc.dse, nnadc.metrics, nnadc.modelio, "
    "nnadc.pipeline, nnadc.signal_core, nnadc.sweep, nnadc.trainer; "
    "print(time.perf_counter() - t)")
# quick operations timed each way when measuring the tracing overhead
OVERHEAD_SAMPLES = 200

# name -> (unit, better); must match "end_to_end" in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms.min": ("ms", "lower"),
    "quick_op_ms.min": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# per-layer time metrics, one per span name: "<name>_s" and "<name>.self_s"
SPAN_METRICS = (
    "trainer.train_stage", "trainer.backprop.subadc", "trainer.backprop.residue",
    "trainer.adam_step", "trainer.refine.subadc", "trainer.refine.residue",
    "trainer.forward_stage", "pipeline.convert",
    "pipeline.perturbed_pipeline", "crossbar.vmm",
    "crossbar.perturb_resistances", "vtc.vtc_eval",
    "signal_core.smooth_decode_array", "metrics.enob_of_codes",
    "sweep.perturbed_stage_metrics", "sweep.train_stage", "dse.optimize",
    "modelio.save_stage", "modelio.load_stage", "config.family",
)
# per-layer call counts: metric name -> span names counted
CALL_METRICS = {
    "trainer.backprop.calls": ["trainer.backprop.subadc",
                               "trainer.backprop.residue"],
    "trainer.refine.calls": ["trainer.refine.subadc",
                             "trainer.refine.residue"],
    "pipeline.convert.calls": ["pipeline.convert"],
    "crossbar.vmm.calls": ["crossbar.vmm"],
    "vtc.vtc_eval.calls": ["vtc.vtc_eval"],
}
# per-layer counters kept by counting wrappers: metric -> counter key
COUNTER_METRICS = {
    "crossbar.weights_from_conductances.calls":
        "crossbar.weights_from_conductances",
    "dse.evaluate_candidate.calls": "dse.evaluate_candidate",
    "trainer.refine.subadc.candidates": "refine.subadc.candidates",
    "trainer.refine.residue.candidates": "refine.residue.candidates",
    "trainer.refine.subadc.accepted": "refine.subadc.accepted",
    "trainer.refine.residue.accepted": "refine.residue.accepted",
}
KINDS = ("subadc", "residue")


def per_layer_units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}_s"] = ("s", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    for name in (*CALL_METRICS, *COUNTER_METRICS):
        units[name] = ("count",
                       "higher" if name.endswith(".accepted") else "lower")
    units.update({
        "trainer.refine.candidates": ("count", "lower"),
        "trainer.refine.accepted": ("count", "higher"),
        "trainer.refine.accept_ratio": ("ratio", "higher"),
        "trainer.refine.point_evals": ("count", "lower"),
        "crossbar.vmm.mflop": ("Mflop", "lower"),
        "trace.overhead_pct": ("%", "lower"),
    })
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stage_train", "inference"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's fingerprints and refinement "
                         "counters for its seed (needs --trace 1)")
    args = ap.parse_args(argv)
    if args.record and not args.trace:
        ap.error("--record needs --trace 1, so that fingerprints and "
                 "refinement counters are recorded together")
    return args


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the library, numpy
    already loaded: the import share of a set-up."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                          str(ROOT / "src")],
                         check=True, capture_output=True, text=True).stdout
    return float(out)


def counter_delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def refine_counts(delta: dict) -> dict:
    return {k: int(v) for k, v in sorted(delta.items())
            if k.startswith("refine.")}


class Phases:
    """Per-layer totals of the prepare, set-up and round phases of a
    traced run."""

    def __init__(self, tracer):
        self.tracer = tracer
        names = ("prepare", "setup", "round")
        self.spans = {n: [] for n in names}          # (first, last) ranges
        self.counts = {n: {} for n in names}

    def add(self, phase, first, counts_before):
        self.spans[phase].append((first, len(self.tracer.spans)))
        delta = counter_delta(self.tracer.counts, counts_before)
        total = self.counts[phase]
        for k, v in delta.items():
            total[k] = total.get(k, 0) + v
        return delta

    def unit(self) -> tuple[dict, dict]:
        """Span and counter totals for the preparation plus one set-up
        plus one round."""
        spans, counts = {}, {}
        for phase, ranges in self.spans.items():
            n = len(ranges)
            for first, last in ranges:
                for name, row in self.tracer.summary(first, last).items():
                    acc = spans.setdefault(
                        name, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
                    for field in acc:
                        acc[field] += row[field] / n
            for k, v in self.counts[phase].items():
                counts[k] = counts.get(k, 0) + v / n
        return spans, counts


def layer_metrics(spans: dict, counts: dict, overhead_pct: float) -> dict:
    def span_sum(names, field):
        return sum(spans.get(n, {}).get(field, 0.0) for n in names)

    out = {}
    for name in SPAN_METRICS:
        out[f"{name}_s"] = span_sum([name], "total_s")
        out[f"{name}.self_s"] = span_sum([name], "self_s")
    for name, names in CALL_METRICS.items():
        out[name] = span_sum(names, "calls")
    for name, key in COUNTER_METRICS.items():
        out[name] = counts.get(key, 0)
    cand = sum(counts.get(f"refine.{k}.candidates", 0) for k in KINDS)
    acc = sum(counts.get(f"refine.{k}.accepted", 0) for k in KINDS)
    out["trainer.refine.candidates"] = cand
    out["trainer.refine.accepted"] = acc
    out["trainer.refine.accept_ratio"] = acc / cand if cand else 0.0
    out["trainer.refine.point_evals"] = sum(
        counts.get(f"refine.{k}.point_evals", 0) for k in KINDS)
    out["crossbar.vmm.mflop"] = counts.get("crossbar.vmm.flop", 0) / 1e6
    out["trace.overhead_pct"] = overhead_pct
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nnadc" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'nnadc'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import environment
    import tracing
    import workloads

    variant = args.seed % workloads.VARIANTS
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](variant, results, args.record)
    rec = workloads.Recorder()
    samples = rec.samples

    def timed(series, fn, *a, **kw):
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        samples.setdefault(series, []).append(time.perf_counter() - t0)
        return out

    tracer = tracing.Tracer() if args.trace else None
    phases = Phases(tracer) if tracer else None
    if tracer:
        tracing.instrument(tracer)

    def phase(name, body):
        first = len(tracer.spans) if tracer else 0
        before = dict(tracer.counts) if tracer else {}
        t0 = time.perf_counter()
        out = body()
        elapsed = time.perf_counter() - t0
        if tracer:
            delta = phases.add(name, first, before)
            wl.check_refine_counts(rec, name, refine_counts(delta))
        return out, elapsed

    prep = phase("prepare", lambda: wl.prepare(rec, timed))[0]
    import_times, setup_times = [], []

    def set_up():
        import_times.append(import_seconds())
        out, elapsed = phase("setup", lambda: wl.setup(prep, rec))
        setup_times.append(elapsed)
        return out

    # the rounds use the first set-up; the later ones are timed and checked
    state = set_up()

    def one_round():
        wl.main(state, rec, timed)
        for _ in range(wl.quick_per_round):
            wl.quick(state, rec, timed)

    rounds, measured_s = 0, 0.0
    while True:
        measured_s += phase("round", one_round)[1]
        rounds += 1
        if measured_s >= args.seconds:
            break
        if measured_s >= len(setup_times) * args.seconds / SETUP_REPEATS:
            set_up()
    while len(setup_times) < SETUP_REPEATS:
        set_up()

    overhead_pct = None
    if tracer:
        # traced minus untraced time of the same quick operation,
        # alternating so that drifts in machine speed cancel
        n_spans = len(tracer.spans)
        for _ in range(OVERHEAD_SAMPLES):
            tracer.unpatch()
            wl.quick(state, rec, lambda s, fn, *a, **kw: timed(
                "quick_untraced", fn, *a, **kw))
            tracing.instrument(tracer)
            wl.quick(state, rec, lambda s, fn, *a, **kw: timed(
                "quick_traced", fn, *a, **kw))
        tracer.unpatch()
        del tracer.spans[n_spans:]
        off = min(samples["quick_untraced"])
        overhead_pct = (min(samples["quick_traced"]) - off) / off * 100.0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment.record(ROOT, args.seed)
    if args.record:
        wl.save_record()

    op, quick = samples["op"], samples["quick"]
    e2e = {
        "setup_s": min(import_times) + min(setup_times),
        "op_ms.min": min(op) * 1e3,
        "quick_op_ms.min": min(quick) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    # the operations' timings under their own names, with their medians
    # and p95; train_stage ran once, to prepare the inputs
    named = {"train_stage_s": (samples["train_stage"][0], "s", 1)}
    for name, series in ((wl.op_name, op), (wl.quick_name, quick)):
        for stat, value in (("min", min(series)), ("p50", median(series)),
                            ("p95", percentile(series, 95))):
            named[f"{name}.{stat}"] = (value * 1e3, "ms", len(series))
    if tracer:
        spans, counts = phases.unit()
        metrics = layer_metrics(spans, counts, overhead_pct)
        units = per_layer_units()
    else:
        metrics = e2e
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed} (variant {variant})  "
          f"trace {args.trace}  rounds {rounds}  measured {measured_s:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    print("  set-up: imports " + ", ".join(f"{t:.3f}" for t in import_times)
          + " s; set-ups " + ", ".join(f"{t:.3f}" for t in setup_times)
          + " s")
    for name, (value, unit, count) in named.items():
        print(f"  {name:<24} {value:12.4f} {unit:<4} lower  (of {count})")
    for name, value in sorted(wl.fingerprints.items()):
        print(f"  {name:<24} {value:12.6g}      fingerprint")
    failed_frac = rec.failed / rec.attempted
    print(f"  {'failed_frac':<24} {failed_frac:12.4f}      lower  "
          f"({rec.failed} of {rec.attempted} operations)")
    for problem in sorted(set(rec.problems)):
        print(f"  FAILED: {problem}")
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name:<40} {value:14.6g} {unit:<6} {better}")

    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": units[k][0]}
                          for k, v in metrics.items()}}
    detail = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "trace": args.trace, "environment": env, "rounds": rounds,
        "setup_s_each": setup_times, "import_s_each": import_times,
        "samples_s": samples, "named": named,
        "fingerprints": wl.fingerprints, "failed_frac": failed_frac,
        "problems": rec.problems, "end_to_end": e2e, "result": result,
    }
    if tracer:
        detail["per_layer_unit"] = "preparation plus one set-up plus one round"
        detail["spans"] = tracer.dump()
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail))
    if args.record:
        # the recorded values were not checked, so there is no result
        print(f"recorded fingerprints and refinement counters of "
              f"{args.workload} variant {variant} in {workloads.FINGERPRINTS}")
        return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
