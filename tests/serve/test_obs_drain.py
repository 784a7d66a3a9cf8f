"""Pool-teardown hygiene: worker span buffers survive into the parent trace.

The regression this file pins down: served requests run inside pool
worker processes, and the spans/metrics recorded there must be drained
from the workers and absorbed into the parent's recorder on every shard
completion — a served request must never lose its trace to a worker's
process exit.
"""

import json
import multiprocessing
import os

import pytest

from repro.align import FullGmxAligner
from repro.obs import runtime as obs
from repro.serve import AlignmentService, ServeConfig
from repro.workloads import generate_pair_set

HAS_PROCESSES = bool(multiprocessing.get_all_start_methods())

needs_processes = pytest.mark.skipif(
    not HAS_PROCESSES, reason="no multiprocessing start method available"
)


def _workload(count=8, seed=61):
    pair_set = generate_pair_set("obs-drain", 64, 0.08, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


@needs_processes
def test_pooled_request_spans_survive_into_parent_trace():
    workload = _workload()
    config = ServeConfig(workers=2, coalesce_max_pairs=4)
    with obs.capture() as (recorder, registry):
        with AlignmentService(FullGmxAligner(), config=config) as service:
            assert service.pool.process_mode
            service.align_pairs(workload)
        spans = list(recorder.spans)
        trace_json = recorder.to_json()
        metrics = registry.snapshot().to_dict()

    shard_spans = [span for span in spans if span.name == "shard.align"]
    assert shard_spans, "worker shard spans were not absorbed by the parent"
    # The spans genuinely came from worker processes, not the parent.
    worker_pids = {span.pid for span in shard_spans}
    assert worker_pids and os.getpid() not in worker_pids
    # And they survive into the exported Chrome trace.
    exported = json.loads(trace_json)
    exported_names = {
        event.get("name") for event in exported["traceEvents"]
    }
    assert "shard.align" in exported_names
    # Worker-side kernel counters were absorbed into the parent registry.
    counters = metrics.get("counters", {})
    assert counters.get("batch.shards", 0) >= 2


@needs_processes
def test_inline_recovery_path_keeps_spans_local():
    """The crash-recovery inline re-run records on the parent directly."""
    workload = _workload(count=3, seed=67)
    config = ServeConfig(workers=1)
    with obs.capture() as (recorder, _registry):
        with AlignmentService(FullGmxAligner(), config=config) as service:
            service.align_pairs(workload)
        shard_spans = [
            span for span in recorder.spans if span.name == "shard.align"
        ]
    assert shard_spans
    assert {span.pid for span in shard_spans} == {os.getpid()}


def test_service_owns_obs_when_none_active():
    """Without an ambient recorder the service arms obs and tears it down."""
    assert not obs.enabled()
    service = AlignmentService(
        FullGmxAligner(), config=ServeConfig(workers=1)
    )
    service.start()
    assert obs.enabled()
    service.close()
    assert not obs.enabled()


@needs_processes
def test_self_armed_service_retains_no_spans():
    """A service that armed obs itself keeps metrics but no span buffer."""
    assert not obs.enabled()
    workload = _workload(count=20, seed=71)
    config = ServeConfig(workers=2, coalesce_max_pairs=4, cache_size=0)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        service.align_pairs(workload[:4])
        after_small = len(obs.recorder())
        service.align_pairs(workload[4:])
        assert len(obs.recorder()) == after_small == 0
        counters = obs.metrics().snapshot().to_dict()["counters"]
        assert counters.get("serve.pairs", 0) == 20
        assert counters.get("batch.shards", 0) >= 2
