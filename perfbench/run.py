"""Run one benchmark workload against the engine and print its metrics.

    python3 perfbench/run.py --workload exact_match --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the engine is imported from ``src/``
beside this directory, and the run fails (exit code 1, no result) when it
is missing.  Workloads, metrics and bounds are listed in ``spec.py`` and
``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics.  It warms up on a small
copy of the workload, times set-ups before and after the measured phase
and reports their median, and measures one open-loop publish-and-drain
phase for ``--seconds`` of wall time (at least until the fixed prefix is
delivered; a cyclic workload in whole cycles).  Wall-clock figures are rescaled to nominal machine speed,
measured beside them; the unscaled rate is printed too.  ``--trace 1``
reports the per-layer metrics: it runs the fixed prefix untraced, then
again with every layer's public functions wrapped (``spans.py``), checks
that both delivered the same notification multiset, and writes the spans
to ``perfbench/out/``.

Every run checks exactly-once delivery, plus each workload's content
check (``scenarios.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted`` (publications published), ``failed``
(publications not delivered exactly once or failing a check) and
``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spec
from scenarios import (
    SCENARIOS,
    delivery_failures,
    machine_speed,
    measure,
    multiset_differences,
    notifications,
)
from spans import SpanRecorder, install, layer_of, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Size of the untimed warm-up copy of a workload.
WARM_UP_SCALE = 0.05
#: Set-ups are timed in two rounds, before the measured phase and after
#: it, each of at least this many builds and this many seconds; the
#: median of both rounds is reported.  The machine's speed drifts over
#: tens of seconds, so two rounds apart sample it twice.
SETUP_REPEATS = 2
SETUP_BUDGET_S = 1.5
#: Variables pinning numeric libraries to one thread: a run uses no
#: threads beyond the simulation's own.
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def clear_environment() -> list:
    """Drop every ``REPRO_*`` variable; returns the names removed.

    ``HubConfig`` and ``ExperimentSetup`` read them in their field
    defaults, so a caller's environment would change what is measured.
    """
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    for name in SINGLE_THREAD:
        os.environ[name] = "1"
    return removed


def import_engine() -> None:
    """Put the checkout's ``src`` first on the path, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: engine source not found at {src / 'repro'}")
    sys.path.insert(0, str(src))


def resolved_config(hub) -> dict:
    """The hub's resolved ``match``/``store``/``net``/``policy`` groups."""
    return {
        group: dataclasses.asdict(getattr(hub.config, group))
        for group in ("match", "store", "net", "policy")
    }


def warm_up(scenario, seed: int) -> None:
    """One untimed pass over a small copy of the workload."""
    small = type(scenario)(scale=scenario.scale * WARM_UP_SCALE)
    inputs = small.inputs(seed)
    measure(small, small.build(inputs), inputs, seed, seconds=0.0)


def verify(scenario, run, inputs) -> tuple:
    undelivered, notes = delivery_failures(run)
    mismatched, content_notes = scenario.check(run, inputs)
    return undelivered + mismatched, notes + content_notes


def timed_setups(scenario, inputs, times: list):
    """One round of timed builds, appended to ``times`` at nominal
    machine speed; returns the last build."""
    first = len(times)
    spent = 0.0
    run = None
    while len(times) - first < SETUP_REPEATS or spent < SETUP_BUDGET_S:
        run = None
        gc.collect()
        begin = time.perf_counter()
        run = scenario.build(inputs)
        elapsed = time.perf_counter() - begin
        spent += elapsed
        times.append(elapsed * statistics.median(machine_speed() for _ in range(3)))
    return run


def end_to_end(scenario, seed: int, seconds: float) -> tuple:
    inputs = scenario.inputs(seed)
    warm_up(scenario, seed)
    setup_times = []
    run = timed_setups(scenario, inputs, setup_times)
    phase = measure(scenario, run, inputs, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, notes = verify(scenario, run, inputs)
    config = resolved_config(run.hub)
    run = None
    timed_setups(scenario, inputs, setup_times)
    metrics = {
        "pubs_per_s": (statistics.median(phase.window_rates), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "delay_p50_ms": (phase.sim["delay_p50_ms"], "ms"),
        "delay_p99_ms": (phase.sim["delay_p99_ms"], "ms"),
        "sim_core_ms_per_pub": (phase.sim["sim_core_ms_per_pub"], "ms"),
        "host_seconds": (phase.sim["host_seconds"], "s"),
    }
    notes += [
        f"measured {phase.wall_s:.2f} s wall in {len(phase.window_rates)} windows "
        f"of {scenario.window_pubs} deliveries; median "
        f"{statistics.median(phase.raw_window_rates):.1f} pubs/s as measured; "
        "set-ups at nominal speed: " + ", ".join(f"{t:.3f}" for t in setup_times) + " s",
        f"delays over {phase.delay_samples} publications "
        f"(p99 leaves {phase.p99_beyond} beyond it), horizon "
        f"{phase.sim['horizon_s']:.2f} simulated s",
    ]
    return config, phase, failed, metrics, notes


def _per_pub(value: float, pubs: int) -> float:
    return value / pubs if pubs else 0.0


def layer_metrics(recorder, mark: int, run, phase, overhead: float) -> dict:
    """Per-layer metrics from the traced run's spans and counters."""
    measured = self_times(recorder, mark)
    everything = self_times(recorder)
    counts = recorder.counts
    pubs = phase.published

    def self_s(*prefixes) -> float:
        return sum(s for name, (_, s) in measured.items() if name.startswith(prefixes))

    def calls(*prefixes) -> int:
        return sum(c for name, (c, _) in measured.items() if name.startswith(prefixes))

    filtering_s = self_s("filtering.match")
    store_calls, store_s = everything.get("filtering.store", (0, 0.0))
    reports = run.manager.migration_reports if run.manager is not None else []
    pauses = sorted(r.interruption_s * 1000.0 for r in reports)
    durations = sorted(r.duration_s * 1000.0 for r in reports)
    instances = [
        logical.active for logical in run.hub.runtime.slices.values()
        if logical.active is not None
    ]
    metrics = {
        "filtering.self_ms_per_pub": _per_pub(filtering_s * 1e3, pubs),
        "filtering.ns_per_row": _per_pub(filtering_s * 1e9, counts["filtering.rows"]),
        "filtering.match_yield": _per_pub(counts["filtering.matches"], counts["filtering.rows"]),
        "filtering.store_us_per_sub": _per_pub(store_s * 1e6, store_calls),
        "pubsub.M.visits_per_pub": _per_pub(counts["pubsub.M.visits"], pubs),
        "pubsub.M.useful_list_ratio": _per_pub(
            counts["filtering.useful_lists"], counts["filtering.lists"]
        ),
    }
    for operator in ("AP", "M", "EP", "SINK"):
        metrics[f"pubsub.{operator}.self_ms_per_pub"] = _per_pub(
            self_s(f"pubsub.{operator}.") * 1e3, pubs
        )
    metrics["pubsub.M.us_per_match"] = _per_pub(
        self_s("pubsub.M.") * 1e6, counts["filtering.matches"]
    )
    for operator in ("AP", "M", "EP"):
        metrics[f"pubsub.{operator}.batch_size"] = _per_pub(
            counts[f"pubsub.{operator}.events"], counts[f"pubsub.{operator}.calls"]
        )
    metrics.update({
        "sim.events_per_pub": _per_pub(calls("sim.step"), pubs),
        "sim.self_ms_per_pub": _per_pub(self_s("sim.") * 1e3, pubs),
        "engine.route_self_ms_per_pub": _per_pub(self_s("engine.") * 1e3, pubs),
        "engine.processed_per_pub": _per_pub(
            sum(counts[f"pubsub.{op}.events"] for op in ("AP", "M", "EP")), pubs
        ),
        "transport.send_self_ms_per_pub": _per_pub(self_s("transport.") * 1e3, pubs),
        "transport.msgs_per_flush": _per_pub(
            counts["cluster.net_msgs"],
            len(recorder.transfers) + counts["cluster.net_calls_unbatched"],
        ),
        "cluster.net_self_ms_per_pub": _per_pub(self_s("cluster.") * 1e3, pubs),
        "cluster.net_bytes_per_pub": _per_pub(counts["cluster.net_bytes"], pubs),
        "cluster.cpu_util_max": phase.sim["cpu_util_max"],
    })
    for operator in ("AP", "M", "EP"):
        metrics[f"cluster.cpu_core_ms_per_pub.{operator}"] = _per_pub(
            phase.core_s_by_operator.get(operator, 0.0) * 1e3, phase.horizon_pubs
        )
    metrics.update({
        "engine.peak_queue": max(i.peak_queue_length for i in instances),
        "migration.pause_ms_p50": statistics.median(pauses) if pauses else 0.0,
        "migration.pause_ms_max": pauses[-1] if pauses else 0.0,
        "migration.duration_ms_p50": statistics.median(durations) if durations else 0.0,
        "migration.state_mb": sum(r.state_bytes for r in reports) / 1e6,
        "elastic.decisions": len(run.manager.history) if run.manager is not None else 0,
        "elastic.migrations": len(reports),
        "elastic.decide_self_ms": self_s("elastic.") * 1e3,
        "coord.ops": calls("coord."),
        "coord.self_ms": self_s("coord.") * 1e3,
    })
    total = sum(s for _, s in measured.values())
    for layer in ("filtering", "pubsub", "engine", "transport", "cluster", "sim",
                  "elastic", "coord"):
        metrics[f"share.{layer}"] = _per_pub(
            sum(s for name, (_, s) in measured.items() if layer_of(name) == layer), total
        )
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def traced(scenario, seed: int) -> tuple:
    inputs = scenario.inputs(seed)
    warm_up(scenario, seed)
    plain_run = scenario.build(inputs)
    plain = measure(scenario, plain_run, inputs, seed, seconds=0.0)
    plain_notifications = notifications(plain_run)
    plain_run = None
    gc.collect()

    recorder = SpanRecorder()
    uninstall = install(recorder)
    try:
        run = scenario.build(inputs)
        mark = len(recorder)
        phase = measure(
            scenario, run, inputs, seed, seconds=0.0,
            drive=recorder.wrap("bench.drive", run.env.run),
        )
    finally:
        uninstall()
    failed, notes = verify(scenario, run, inputs)
    # Tracing must be a pure observer: the same publications delivered
    # with the same content.
    differing = multiset_differences(notifications(run), plain_notifications)
    failed += differing
    overhead = phase.wall_s / plain.wall_s
    metrics = layer_metrics(recorder, mark, run, phase, overhead)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    # One file per workload, overwritten by the next traced run.
    spans_path = out / f"{scenario.name}.spans.npz"
    recorder.save(str(spans_path))
    notes += [
        "traced notification multiset equals the untraced run's" if not differing
        else f"traced notification multiset DIFFERS on {differing} publications",
        f"{len(recorder)} spans written to {spans_path.relative_to(ROOT)}; "
        f"tracing overhead {overhead:.2f}x "
        f"({phase.wall_s:.2f} s traced / {plain.wall_s:.2f} s untraced)",
    ]
    units = {name: unit for name, (unit, _, _) in spec.PER_LAYER.items()}
    return (
        resolved_config(run.hub), phase, failed,
        {k: (v, units[k]) for k, v in metrics.items()}, notes,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    removed = clear_environment()
    import_engine()
    scenario = SCENARIOS[args.workload]()
    if args.trace:
        config, phase, failed, metrics, notes = traced(scenario, args.seed)
    else:
        config, phase, failed, metrics, notes = end_to_end(scenario, args.seed, args.seconds)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "layers": spec.WORKLOADS[args.workload][1],
        "repro_env_cleared": removed,
        "config": config,
        "parallel": f"repro.parallel not exercised: match.workers = {config['match']['workers']}",
        "undelivered_ratio": _per_pub(failed, phase.published),
    }
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": phase.published,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
