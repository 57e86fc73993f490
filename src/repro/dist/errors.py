"""Typed errors of the distributed execution plane.

Mirrors :mod:`repro.congest.errors`: every failure mode the cluster can
hit gets its own class carrying structured context, so callers (and the
CLI) can branch on *what* went wrong instead of string-matching, and the
dist-differential suite can assert the exact failure surfaced.

The split that matters operationally:

- :class:`NodeFailure` — the *transport* broke (connection refused,
  EOF mid-frame, ping timeout, worker process died).  The cluster
  treats this as "the node is gone": it marks the node dead, requeues
  the shard on a surviving node, and only surfaces
  :class:`ClusterError` once no nodes are left.
- :class:`TaskError` — the *task itself* raised on a healthy node.
  This is a bug (or bad input), not an infrastructure event; retrying
  it elsewhere would fail identically, so it propagates immediately
  with the remote traceback attached.
"""

from __future__ import annotations

from typing import Optional, Tuple


class DistError(RuntimeError):
    """Base class of every distributed-plane error."""


class HostSpecError(DistError, ValueError):
    """A ``--hosts`` entry (or ``ExecutionConfig.hosts`` element)
    does not parse into a node: unknown scheme, malformed ``host:port``,
    out-of-range port.  Carries the offending spec for error messages."""

    def __init__(self, message: str, spec: str) -> None:
        super().__init__(f"{message}: {spec!r}")
        self.spec = spec


class ProtocolError(DistError):
    """A frame violated the wire protocol (bad tag, oversized length,
    unknown opcode).  Transport-level: nodes surfacing it are dead."""


class NodeFailure(DistError):
    """A node became unreachable (connect/read/write failed, EOF, ping
    timeout).  The cluster's retry path consumes this."""

    def __init__(self, message: str, node: str = "") -> None:
        super().__init__(f"node {node or '?'}: {message}")
        self.node = node


class TaskError(DistError):
    """A task raised on the remote side.  ``remote_traceback`` holds the
    worker's formatted traceback for debugging."""

    def __init__(
        self, message: str, node: str = "", remote_traceback: str = ""
    ) -> None:
        super().__init__(message)
        self.node = node
        self.remote_traceback = remote_traceback


class UnknownTaskError(TaskError):
    """The task name is not in the worker's allowlist
    (:data:`repro.dist.registry.TASKS`) — remote nodes execute only
    registered kernels, never arbitrary pickled callables."""


class ClusterError(DistError):
    """The cluster could not complete a dispatch: every node died.
    Carries the shard accounting so the caller can report how far the
    dispatch got."""

    def __init__(
        self,
        message: str,
        pending: int = 0,
        failed_nodes: Tuple[str, ...] = (),
        task: Optional[str] = None,
    ) -> None:
        context = f"pending={pending} failed_nodes={list(failed_nodes)}"
        if task:
            context = f"task={task} {context}"
        super().__init__(f"{message} ({context})")
        self.pending = pending
        self.failed_nodes = failed_nodes
        self.task = task
