"""Wire protocol between the dist coordinator and its worker nodes.

Everything crossing the HTTP boundary is plain JSON, built on the same
lossless result serialisation the checkpoint journal uses
(:func:`repro.resilience.checkpoint.serialize_result`), so a completion
that travelled through a node is byte-identical to one computed locally.

Messages:

* :class:`ShardRequest` — ``POST /shard`` body: the leased shard's
  pairs, its lease ``epoch``, the aligner fingerprint the node must
  match, and (under chaos) the planned :class:`NodeFault` the node must
  act out.
* :class:`ShardCompletion` — the node's reply: serialised results,
  input checksum, the *echoed* lease epoch (the coordinator's staleness
  test), node identity/incarnation, and drained observability buffers.

The lease **epoch** is the exactly-once primitive: each time a shard is
(re)leased its epoch increments, and only a completion echoing the
current epoch may be accounted.  A zombie node finishing work after its
lease expired echoes a stale epoch and is discarded byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..align.base import AlignmentResult
from ..resilience.checkpoint import deserialize_result, serialize_result


class DistError(RuntimeError):
    """Root of the distributed-execution error hierarchy."""


class ProtocolError(DistError):
    """A message crossing the coordinator/worker boundary is malformed."""


#: Node-level fault kinds the chaos harness can inject mid-shard.
#:
#: * ``kill`` — the worker process exits immediately (crash).
#: * ``hang`` — the node computes, then stalls past the lease timeout
#:   before replying: its completion arrives with a stale epoch (zombie).
#: * ``slow`` — the node stalls *below* the lease timeout, then replies
#:   normally: absorbed latency, no retry needed.
#: * ``partition`` — the node computes, then drops the connection without
#:   replying (network partition at the worst moment).
NODE_FAULT_KINDS = ("kill", "hang", "slow", "partition")


@dataclass(frozen=True)
class NodeFault:
    """One planned node-level fault, pinned to a shard.

    Attributes:
        kind: one of :data:`NODE_FAULT_KINDS`.
        shard: the shard index the fault fires on (first dispatch).
        seconds: stall duration for ``hang``/``slow`` (ignored otherwise).
    """

    kind: str
    shard: int
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in NODE_FAULT_KINDS:
            raise ProtocolError(
                f"unknown node fault kind {self.kind!r} "
                f"(have {NODE_FAULT_KINDS})"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NodeFault":
        try:
            return cls(
                kind=data["kind"],
                shard=int(data["shard"]),
                seconds=float(data.get("seconds", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed node fault: {exc}") from exc


@dataclass
class ShardRequest:
    """``POST /shard`` body: one leased work item."""

    shard_id: int
    epoch: int
    pairs: List[Tuple[str, str]]
    traceback: bool = True
    fingerprint: str = ""
    want_obs: bool = False
    fault: Optional[NodeFault] = None

    def to_json(self) -> bytes:
        payload = {
            "shard_id": self.shard_id,
            "epoch": self.epoch,
            "pairs": [list(pair) for pair in self.pairs],
            "traceback": self.traceback,
            "fingerprint": self.fingerprint,
            "want_obs": self.want_obs,
            "fault": self.fault.to_dict() if self.fault else None,
        }
        return json.dumps(payload).encode("utf-8")

    @classmethod
    def from_json(cls, body: bytes) -> "ShardRequest":
        try:
            data = json.loads(body.decode("utf-8"))
            pairs = [(str(p), str(t)) for p, t in data["pairs"]]
            return cls(
                shard_id=int(data["shard_id"]),
                epoch=int(data["epoch"]),
                pairs=pairs,
                traceback=bool(data.get("traceback", True)),
                fingerprint=str(data.get("fingerprint", "")),
                want_obs=bool(data.get("want_obs", False)),
                fault=(
                    NodeFault.from_dict(data["fault"])
                    if data.get("fault")
                    else None
                ),
            )
        except ProtocolError:
            raise
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            raise ProtocolError(f"malformed shard request: {exc}") from exc


@dataclass
class ShardCompletion:
    """A node's reply to a :class:`ShardRequest`.

    ``epoch`` echoes the lease the node worked under — the coordinator's
    exactly-once staleness test.  ``spans``/``metrics`` are the node's
    drained observability buffers (see
    :func:`repro.align.parallel._absorb_obs_buffers`).
    """

    shard_id: int
    epoch: int
    node: str
    incarnation: int
    checksum: int
    results: List[AlignmentResult]
    elapsed: float = 0.0
    spans: List[dict] = field(default_factory=list)
    metrics: Optional[dict] = None

    def to_json(self) -> bytes:
        payload = {
            "shard_id": self.shard_id,
            "epoch": self.epoch,
            "node": self.node,
            "incarnation": self.incarnation,
            "checksum": self.checksum,
            "results": [serialize_result(result) for result in self.results],
            "elapsed": self.elapsed,
            "spans": self.spans,
            "metrics": self.metrics,
        }
        return json.dumps(payload).encode("utf-8")

    @classmethod
    def from_json(cls, body: bytes) -> "ShardCompletion":
        try:
            data = json.loads(body.decode("utf-8"))
            return cls(
                shard_id=int(data["shard_id"]),
                epoch=int(data["epoch"]),
                node=str(data["node"]),
                incarnation=int(data["incarnation"]),
                checksum=int(data["checksum"]),
                results=[
                    deserialize_result(item) for item in data["results"]
                ],
                elapsed=float(data.get("elapsed", 0.0)),
                spans=list(data.get("spans") or ()),
                metrics=data.get("metrics"),
            )
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            raise ProtocolError(f"malformed shard completion: {exc}") from exc

