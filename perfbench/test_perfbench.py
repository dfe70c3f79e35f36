"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import scenarios
import spans
import spec
from scenarios import SCENARIOS, percentile_with_tail
from spans import SpanRecorder, self_times

run.import_engine()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- self time -------------------------------------------------------------------


def _spans(recorder, rows):
    """Append ``(name, start, end, parent)`` rows directly."""
    for name, start, end, parent in rows:
        recorder.name.append(recorder.name_id(name))
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.pub.append(-1)


def test_self_time_subtracts_child_spans():
    recorder = SpanRecorder()
    # root [0, 100) holds a [10, 40) and b [50, 90); b holds c [60, 70).
    _spans(recorder, [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 50, 90, 0),
        ("c", 60, 70, 2),
    ])
    times = self_times(recorder)
    assert times["root"] == (1, pytest.approx(30e-9))
    assert times["a"] == (1, pytest.approx(30e-9))
    assert times["b"] == (1, pytest.approx(30e-9))
    assert times["c"] == (1, pytest.approx(10e-9))
    assert sum(s for _, s in times.values()) == pytest.approx(100e-9)


def test_self_time_from_a_mark_ignores_earlier_spans():
    recorder = SpanRecorder()
    _spans(recorder, [("setup", 0, 5, -1), ("root", 10, 20, -1), ("leaf", 12, 15, 1)])
    times = self_times(recorder, first=1)
    assert set(times) == {"root", "leaf"}
    assert times["root"][1] == pytest.approx(7e-9)


def test_wrapped_calls_nest_and_self_times_tile_the_root():
    recorder = SpanRecorder()

    def leaf(n):
        return sum(range(n))

    traced_leaf = recorder.wrap("leaf", leaf)

    def middle():
        return traced_leaf(1000) + traced_leaf(2000)

    traced_middle = recorder.wrap("middle", middle)
    root = recorder.wrap("root", lambda: traced_middle() + traced_leaf(10))
    assert root() == sum(range(1000)) + sum(range(2000)) + sum(range(10))
    assert list(recorder.parent) == [-1, 0, 1, 1, 0]
    assert recorder.current == -1
    times = self_times(recorder)
    assert times["leaf"][0] == 3
    total = (recorder.end[0] - recorder.start[0]) / 1e9
    assert sum(s for _, s in times.values()) == pytest.approx(total)
    assert all(s >= 0 for _, s in times.values())


def test_wrapped_call_closes_its_span_when_it_raises():
    recorder = SpanRecorder()

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("fail", fail)()
    assert recorder.current == -1
    assert recorder.end[0] >= recorder.start[0]


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1000))
    assert percentile_with_tail(values, 0.99) == (989, 10)
    assert percentile_with_tail(list(range(2000)), 0.99) == (1979, 20)
    assert percentile_with_tail(list(range(50)), 0.99) == (39, 10)
    assert percentile_with_tail(list(range(2000)), 0.5) == (999, 1000)


# -- metric and workload names ---------------------------------------------------


def test_benchmark_json_is_generated_from_spec():
    path = Path(spec.ROOT, "BENCHMARK.json")
    assert path.read_text() == spec.render()


def test_names_units_and_bounds_are_valid():
    document = spec.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert set(spec.WORKLOADS) == set(SCENARIOS)
    names = []
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert spec.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert len(json.dumps(document)) <= 64 * 1024


# -- every workload at a tiny size -----------------------------------------------

TINY = 0.02


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_workload_end_to_end_at_tiny_size(workload):
    scenario = SCENARIOS[workload](scale=TINY)
    config, phase, failed, metrics, notes = run.end_to_end(scenario, seed=3, seconds=0.0)
    assert failed == 0, notes
    assert config["match"]["workers"] == 0
    assert 0 < phase.delay_samples <= phase.delivered == phase.published
    assert set(metrics) == set(spec.END_TO_END)
    for name, (value, unit) in metrics.items():
        assert unit == spec.END_TO_END[name][0]
        assert value > 0, name


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_workload_traced_at_tiny_size(workload):
    scenario = SCENARIOS[workload](scale=TINY)
    config, phase, failed, metrics, notes = run.traced(scenario, seed=3)
    assert failed == 0, notes
    assert any("equals the untraced run's" in note for note in notes)
    assert set(metrics) == set(spec.PER_LAYER)
    assert metrics["sim.events_per_pub"][0] > 0
    # Every publication visits every M slice (4 on the small hub, 16 on
    # the paper topology) while the AP broadcasts.
    assert metrics["pubsub.M.visits_per_pub"][0] in (4.0, 16.0)


def test_surge_is_measured_in_whole_cycles():
    scenario = SCENARIOS["elastic_surge"](scale=TINY)
    inputs = scenario.inputs(3)
    built = scenario.build(inputs)
    phase = scenarios.measure(scenario, built, inputs, seed=3, seconds=0.0)
    # The run stopped publishing at the end of the cycles the prefix
    # covers, so the prefix holds every publication.
    assert built.prefix_count == phase.published
    assert phase.sim["horizon_s"] == pytest.approx(scenario.surges * scenario.cycle_s())


def test_arrivals_follow_a_rate_that_falls_to_zero():
    """The source integrates the rate, so a rate near zero at the end of
    a ramp cannot push the next publication (and the prefix mark) far
    past the ramp."""
    from repro.sim import Environment

    class Ramp(scenarios.Scenario):
        arrivals = "paced"
        prefix_s = 20.0

        def rate_fn(self, run):
            return lambda t: max(0.0, 10.0 * (1.0 - t / 10.0))

    env = Environment()
    published = []

    class Hub:
        published_count = 0

        def publish(self, publication, source):
            published.append(env.now)
            Hub.published_count += 1

    hub = Hub()
    hub.env = env
    built = scenarios.Run(env=env, hub=hub, cloud=None, engine_hosts=[], sink_hosts=0)
    Ramp().start(built, {}, seed=1)
    env.run(until=30.0)
    # The integral of the ramp is 50 publications, all within it.
    assert 45 <= len(published) <= 55
    assert max(published) < 10.0
    assert built.prefix_count == len(published)


def test_transfers_group_messages_by_flush_epoch():
    from repro.cluster import Network
    from repro.sim import Environment

    env = Environment()
    network = Network(env, batch_flush_s=0.1)
    for host in ("a", "b", "c"):
        network.attach(host)
    recorder = SpanRecorder()
    send = recorder.wrap("send", Network.send, count=spans._net_single)
    send_batch = recorder.wrap("send_batch", Network.send_batch, count=spans._net_batch)
    drop = lambda payload: None
    for _ in range(3):
        send(network, "a", "b", 10, None, drop)
    send_batch(network, "a", "b", [10, 10], [None, None], drop)
    send(network, "a", "c", 10, None, drop)
    send(network, "a", "a", 10, None, drop)
    # a->b: five messages in one epoch; a->c: one; a->a: loopback, unbatched.
    assert recorder.counts["cluster.net_msgs"] == 7
    assert len(recorder.transfers) == 2
    assert recorder.counts["cluster.net_calls_unbatched"] == 1
    env.run(until=0.5)
    send(network, "a", "b", 10, None, drop)
    assert len(recorder.transfers) == 3


def test_simulated_metrics_repeat_for_a_seed():
    scenario = SCENARIOS["broadcast_fanout"](scale=TINY)
    first = run.end_to_end(scenario, seed=5, seconds=0.0)[3]
    again = run.end_to_end(scenario, seed=5, seconds=0.3)[3]
    other = run.end_to_end(scenario, seed=6, seconds=0.0)[3]
    for name in ("delay_p50_ms", "delay_p99_ms", "sim_core_ms_per_pub", "host_seconds"):
        assert first[name] == again[name]
    assert first["delay_p50_ms"] != other["delay_p50_ms"]


def test_runner_fails_without_the_engine_source(tmp_path):
    shutil.copytree(spec.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_match",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
