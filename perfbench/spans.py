"""In-memory span tracing of the engine's layers, installed from outside.

The traced run wraps public functions of every layer (see ``targets``) on
their classes, so the program itself is untouched.  Each call records one
span: name, start, end, parent span and the publication id its arguments
carry (``-1`` when they carry none).  Spans live in compact arrays and are
written out once the run ends.  A layer's self time is its spans' duration
minus the part their child spans cover; the layer totals and the counts
kept beside them become the per-layer metrics.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "install", "self_times", "layer_of"]


class SpanRecorder:
    """Spans in parallel arrays plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.pub = array("q")
        #: Index of the innermost open span (-1 at top level).
        self.current = -1
        self.counts: Counter = Counter()
        #: Wire transfers seen: ``(sender, destination, departure epoch)``.
        self.transfers: set = set()

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(
        self,
        name: str,
        original: Callable,
        pub_of: Optional[Callable] = None,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``original`` recording one span per call.

        ``pub_of(args)`` extracts the publication id; ``count(args,
        result, recorder)`` updates counters after the call returns.
        """
        name_id = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, pubs = self.parent, self.pub
        clock = time.perf_counter_ns
        recorder = self

        def traced(*args, **kwargs):
            parent = recorder.current
            index = len(starts)
            names.append(name_id)
            parents.append(parent)
            pubs.append(pub_of(args) if pub_of is not None else -1)
            ends.append(0)
            recorder.current = index
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                recorder.current = parent
            if count is not None:
                count(args, result, recorder)
            return result

        traced.__wrapped__ = original
        return traced

    def save(self, path: str) -> None:
        """Write every span as arrays of one ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pub_id=np.frombuffer(self.pub, dtype=np.int64),
        )


def self_times(recorder: SpanRecorder, first: int = 0) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, self seconds)`` over spans ``first`` onwards.

    ``first`` must be an index taken while no span was open, so every
    later span's parent is itself at or after ``first`` (or -1).
    """
    import numpy as np

    start = np.frombuffer(recorder.start, dtype=np.int64)[first:]
    end = np.frombuffer(recorder.end, dtype=np.int64)[first:]
    parent = np.frombuffer(recorder.parent, dtype=np.int32)[first:].astype(np.int64)
    name = np.frombuffer(recorder.name, dtype=np.uint16)[first:]
    duration = (end - start).astype(np.float64)
    child = np.zeros(len(duration))
    nested = parent >= 0
    np.add.at(child, parent[nested] - first, duration[nested])
    own = duration - child
    size = len(recorder.names)
    calls = np.bincount(name, minlength=size)
    total = np.bincount(name, weights=own, minlength=size)
    return {
        recorder.names[i]: (int(calls[i]), float(total[i]) / 1e9)
        for i in range(size)
        if calls[i]
    }


def layer_of(span_name: str) -> str:
    """Layer of a span name: ``pubsub.M.process`` -> ``pubsub``."""
    return span_name.split(".", 1)[0]


# -- publication ids carried by the wrapped calls' arguments ----------------


def _event_pub(event) -> int:
    pub_id = getattr(getattr(event, "payload", None), "pub_id", None)
    return -1 if pub_id is None else pub_id


def _arg_event(position: int) -> Callable:
    return lambda args: _event_pub(args[position]) if len(args) > position else -1


def _arg_first_event(position: int) -> Callable:
    def pub_of(args):
        if len(args) > position and args[position]:
            return _event_pub(args[position][0])
        return -1

    return pub_of


def _arg_payload(position: int) -> Callable:
    def pub_of(args):
        if len(args) > position:
            pub_id = getattr(args[position], "pub_id", None)
            if pub_id is not None:
                return pub_id
        return -1

    return pub_of


def _arg_int(position: int) -> Callable:
    return lambda args: args[position] if len(args) > position else -1


def _arg_first_int(position: int) -> Callable:
    return lambda args: args[position][0] if len(args) > position and args[position] else -1


# -- counters kept at the layer boundaries ---------------------------------


def _handler_single(operator: str) -> Callable:
    def count(args, result, recorder):
        counts = recorder.counts
        counts[f"pubsub.{operator}.calls"] += 1
        counts[f"pubsub.{operator}.events"] += 1
        if operator == "M" and getattr(args[1], "kind", None) == "publication":
            counts["pubsub.M.visits"] += 1

    return count


def _handler_batch(operator: str) -> Callable:
    def count(args, result, recorder):
        counts = recorder.counts
        events = args[1]
        counts[f"pubsub.{operator}.calls"] += 1
        counts[f"pubsub.{operator}.events"] += len(events)
        if operator == "M":
            counts["pubsub.M.visits"] += sum(
                1 for event in events if event.kind == "publication"
            )

    return count


def _match_single(args, result, recorder):
    counts = recorder.counts
    counts["filtering.rows"] += args[0].subscription_count()
    counts["filtering.matches"] += result.count
    counts["filtering.lists"] += 1
    counts["filtering.useful_lists"] += result.count > 0


def _match_batch(args, result, recorder):
    counts = recorder.counts
    counts["filtering.rows"] += args[0].subscription_count() * len(result)
    for item in result:
        counts["filtering.matches"] += item.count
        counts["filtering.useful_lists"] += item.count > 0
    counts["filtering.lists"] += len(result)


def _transfer(network, src: str, dst: str, recorder) -> None:
    """Record the wire transfer a send joins.

    Under fixed flush epochs (``batch_flush_s``) the fabric holds
    inter-host messages until the sender's next epoch, so messages from
    one host to another departing at the same epoch form one transfer;
    otherwise each call is a transfer of its own.
    """
    next_flush = getattr(network, "_next_flush", None)
    if src != dst and getattr(network, "batch_flush_s", 0.0) > 0.0 and next_flush:
        recorder.transfers.add((src, dst, next_flush(src, network.env.now)))
    else:
        recorder.counts["cluster.net_calls_unbatched"] += 1


def _net_single(args, result, recorder):
    network, src, dst, size = args[:4]
    recorder.counts["cluster.net_bytes"] += size
    recorder.counts["cluster.net_msgs"] += 1
    _transfer(network, src, dst, recorder)


def _net_batch(args, result, recorder):
    network, src, dst, sizes, payloads = args[:5]
    recorder.counts["cluster.net_bytes"] += sum(sizes)
    recorder.counts["cluster.net_msgs"] += len(payloads)
    _transfer(network, src, dst, recorder)


def targets():
    """``(class, attribute, span name, pub_of, count)`` for every layer.

    Imported lazily: ``repro`` becomes importable only once the runner
    has put the checkout's ``src`` on the path.
    """
    from repro.coord import CoordinationKernel
    from repro.elastic import (
        ElasticityEnforcer,
        ElasticityManager,
        ProbeCollector,
        SignalStack,
    )
    from repro.engine import EngineRuntime
    from repro.filtering import ExactBackend, SampledBackend
    from repro.cluster import Network
    from repro.pubsub import (
        AccessPointHandler,
        ExitPointHandler,
        MatcherHandler,
        NotificationSinkHandler,
    )
    from repro.sim import Environment
    from repro.transport import Transport

    rows = [(Environment, "step", "sim.step", None, None)]
    for cls, operator in (
        (AccessPointHandler, "AP"),
        (MatcherHandler, "M"),
        (ExitPointHandler, "EP"),
        (NotificationSinkHandler, "SINK"),
    ):
        rows.append(
            (cls, "process", f"pubsub.{operator}.process", _arg_event(1),
             _handler_single(operator))
        )
        rows.append(
            (cls, "process_batch", f"pubsub.{operator}.process_batch",
             _arg_first_event(1), _handler_batch(operator))
        )
    for cls in (ExactBackend, SampledBackend):
        rows.append((cls, "match", "filtering.match", _arg_int(1), _match_single))
        rows.append(
            (cls, "match_batch", "filtering.match_batch", _arg_first_int(1),
             _match_batch)
        )
        rows.append((cls, "store", "filtering.store", None, None))
    rows += [
        (EngineRuntime, "route", "engine.route", _arg_payload(4), None),
        (EngineRuntime, "route_batch", "engine.route_batch", None, None),
        (EngineRuntime, "inject", "engine.inject", _arg_payload(4), None),
        (Transport, "send", "transport.send", _arg_event(4), None),
        (Transport, "send_many", "transport.send_many", _arg_first_event(4), None),
        (Network, "send", "cluster.net.send", _arg_event(4), _net_single),
        (Network, "send_batch", "cluster.net.send_batch", _arg_first_event(4),
         _net_batch),
        (ElasticityManager, "execute_decision", "elastic.execute_decision", None, None),
        (ProbeCollector, "collect_now", "elastic.collect_now", None, None),
        (SignalStack, "evaluate", "elastic.evaluate", None, None),
        (ElasticityEnforcer, "resolve", "elastic.resolve", None, None),
    ]
    for op in ("create", "get", "exists", "set", "delete", "get_children", "ensure_path"):
        rows.append((CoordinationKernel, op, f"coord.{op}", None, None))
    return rows


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target method defined on its class; returns the undo.

    Inherited methods are skipped (``SampledBackend.match_batch`` is the
    base class loop over ``match``, already traced as such).
    """
    undo = []
    for cls, attribute, name, pub_of, count in targets():
        original = cls.__dict__.get(attribute)
        if original is None:
            continue
        setattr(cls, attribute, recorder.wrap(name, original, pub_of, count))
        undo.append((cls, attribute, original))

    def uninstall() -> None:
        for cls, attribute, original in reversed(undo):
            setattr(cls, attribute, original)

    return uninstall
