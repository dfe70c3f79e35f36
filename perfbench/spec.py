"""What the benchmark measures, and why: the source of ``BENCHMARK.json``.

``BENCHMARK.json`` holds only the keys its format allows; this module also
records which layers each workload exercises and which end-to-end metric
each per-layer metric should move, on which workload.  Regenerate the
JSON file after editing this one::

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 15

#: name -> (why it was chosen, layers it exercises).
WORKLOADS = {
    "exact_match": (
        "real encrypted ASPE matching on a small hub (2 AP/4 M/2 EP, 80k subs) "
        "at half the modelled capacity: filtering does most of the wall time",
        ("pubsub", "filtering", "engine", "transport", "cluster", "sim"),
    ),
    "subscribe_churn": (
        "exact_match plus new subscriptions via StreamHub.subscribe: "
        "write-locked stores and epoch bumps land between matches",
        ("pubsub", "filtering", "engine", "transport", "cluster", "sim"),
    ),
    "broadcast_fanout": (
        "paper topology (8 AP/16 M/8 EP, 8 hosts), sampled matching, 0.1 s flush, "
        "half capacity: the event plane does the work, not filtering",
        ("pubsub", "engine", "transport", "cluster", "sim", "experiments"),
    ),
    "elastic_surge": (
        "two Fig. 8 trapezoids (peak 130/s, 50k subs) from one host, default "
        "policy: the only workload that scales out and in and migrates slices",
        ("elastic", "coord", "engine", "pubsub", "transport", "cluster", "sim",
         "experiments"),
    ),
}

#: name -> (unit, better, bound).  ``pubs_per_s`` is the median over
#: wall-clock windows of deliveries per second, and ``setup_s`` the median
#: set-up time, both rescaled to nominal machine speed (see
#: ``scenarios.machine_speed``).  ``host_seconds`` is the integral of the
#: engine fleet over simulated time: until the drain back to one host on
#: ``elastic_surge``, until the last prefix delivery on the static fleets.
#: Simulated metrics repeat exactly for a seed; their spread across seeds
#: comes from the seeded inputs.
END_TO_END = {
    "pubs_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "delay_p50_ms": ("ms", "lower", 0.1),
    "delay_p99_ms": ("ms", "lower", 0.2),
    "sim_core_ms_per_pub": ("ms", "lower", 0.05),
    "host_seconds": ("s", "lower", 0.1),
}

_FILTER_MOVES = "pubs_per_s on exact_match; no change expected on broadcast_fanout"
_PLANE_MOVES = "pubs_per_s on broadcast_fanout"
_QUEUE_MOVES = "delay_p99_ms (queueing rises before throughput flattens)"
_MIGRATION_MOVES = "delay_p99_ms on elastic_surge"
_ELASTIC_MOVES = "host_seconds and pubs_per_s on elastic_surge"
_HANDLER_MOVES = "pubs_per_s on exact_match and broadcast_fanout"

#: name -> (unit, better, the end-to-end metric it should move).
PER_LAYER = {
    "filtering.self_ms_per_pub": ("ms/pub", "lower", _FILTER_MOVES),
    "filtering.ns_per_row": ("ns/row", "lower", _FILTER_MOVES),
    "filtering.match_yield": ("ratio", "higher", _FILTER_MOVES),
    "filtering.store_us_per_sub": (
        "us/sub", "lower",
        "pubs_per_s on subscribe_churn; setup_s on exact_match",
    ),
    "pubsub.M.visits_per_pub": (
        "visits/pub", "lower",
        "sim_core_ms_per_pub, delay_p50_ms, pubs_per_s on broadcast_fanout; "
        "host_seconds on elastic_surge",
    ),
    "pubsub.M.useful_list_ratio": (
        "ratio", "higher",
        "sim_core_ms_per_pub, delay_p50_ms, pubs_per_s on broadcast_fanout; "
        "host_seconds on elastic_surge",
    ),
    "pubsub.AP.self_ms_per_pub": ("ms/pub", "lower", _HANDLER_MOVES),
    "pubsub.M.self_ms_per_pub": ("ms/pub", "lower", _HANDLER_MOVES),
    "pubsub.EP.self_ms_per_pub": ("ms/pub", "lower", _HANDLER_MOVES),
    "pubsub.SINK.self_ms_per_pub": ("ms/pub", "lower", _HANDLER_MOVES),
    "pubsub.M.us_per_match": ("us/match", "lower", _HANDLER_MOVES),
    "pubsub.AP.batch_size": ("events/call", "higher", _HANDLER_MOVES),
    "pubsub.M.batch_size": ("events/call", "higher", _HANDLER_MOVES),
    "pubsub.EP.batch_size": ("events/call", "higher", _HANDLER_MOVES),
    "sim.events_per_pub": ("events/pub", "lower", _PLANE_MOVES),
    "sim.self_ms_per_pub": ("ms/pub", "lower", _PLANE_MOVES),
    "engine.route_self_ms_per_pub": ("ms/pub", "lower", _PLANE_MOVES),
    "engine.processed_per_pub": ("events/pub", "lower", _PLANE_MOVES),
    "transport.send_self_ms_per_pub": ("ms/pub", "lower", _PLANE_MOVES),
    "transport.msgs_per_flush": (
        "msgs/transfer", "higher",
        "pubs_per_s on broadcast_fanout; flush epochs set most of delay_p50_ms there",
    ),
    "cluster.net_self_ms_per_pub": ("ms/pub", "lower", _PLANE_MOVES),
    "cluster.net_bytes_per_pub": ("B/pub", "lower", _PLANE_MOVES),
    "cluster.cpu_util_max": ("ratio", "lower", _QUEUE_MOVES),
    "cluster.cpu_core_ms_per_pub.AP": ("ms/pub", "lower", _QUEUE_MOVES),
    "cluster.cpu_core_ms_per_pub.M": ("ms/pub", "lower", _QUEUE_MOVES),
    "cluster.cpu_core_ms_per_pub.EP": ("ms/pub", "lower", _QUEUE_MOVES),
    "engine.peak_queue": ("events", "lower", _QUEUE_MOVES),
    "migration.pause_ms_p50": ("ms", "lower", _MIGRATION_MOVES),
    "migration.pause_ms_max": ("ms", "lower", _MIGRATION_MOVES),
    "migration.duration_ms_p50": ("ms", "lower", _MIGRATION_MOVES),
    "migration.state_mb": ("MB", "lower", _MIGRATION_MOVES),
    "elastic.decisions": ("count", "lower", _ELASTIC_MOVES),
    "elastic.migrations": ("count", "lower", _ELASTIC_MOVES),
    "elastic.decide_self_ms": ("ms", "lower", _ELASTIC_MOVES),
    "coord.ops": ("count", "lower", _ELASTIC_MOVES),
    "coord.self_ms": ("ms", "lower", _ELASTIC_MOVES),
    "share.filtering": ("ratio", "lower", _FILTER_MOVES),
    "share.pubsub": ("ratio", "lower", _HANDLER_MOVES),
    "share.engine": ("ratio", "lower", _PLANE_MOVES),
    "share.transport": ("ratio", "lower", _PLANE_MOVES),
    "share.cluster": ("ratio", "lower", _PLANE_MOVES),
    "share.sim": ("ratio", "lower", _PLANE_MOVES),
    "share.elastic": ("ratio", "lower", _ELASTIC_MOVES),
    "share.coord": ("ratio", "lower", _ELASTIC_MOVES),
    "trace.overhead_ratio": (
        "ratio", "lower", "none: traced wall time over untraced wall time"
    ),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
