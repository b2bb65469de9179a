"""Unstructured peer-to-peer overlay substrate.

The paper models the overlay as an undirected graph :math:`G(V, E)` with
arbitrary topology whose membership changes over time (Section II). This
package provides:

* :mod:`repro.network.topology` — generators for the topology families used
  in the evaluation (mesh for the weather network, power-law for the
  SETI@HOME-like network) plus extras for testing.
* :mod:`repro.network.graph` — a mutable overlay graph supporting joins,
  leaves and rewiring while keeping the graph connected.
* :mod:`repro.network.churn` — session-based churn processes.
* :mod:`repro.network.faults` — the failure model: seeded message loss,
  crashes, link failures and latency jitter, plus the fault audit log.
* :mod:`repro.network.partitions` — correlated failures: scheduled overlay
  partitions and flapping links, with overlay repair on heal.
* :mod:`repro.network.health` — origin-side neighbor health: per-link
  circuit breakers and partition suspicion from correlated walk failures.
* :mod:`repro.network.messaging` — hop-level message accounting, the cost
  unit of every figure in the paper.
"""

from repro.network.churn import ChurnConfig, ChurnProcess
from repro.network.faults import (
    CrashProcess,
    FaultConfig,
    FaultLog,
    FaultPlan,
)
from repro.network.graph import OverlayGraph
from repro.network.health import CircuitBreaker, HealthConfig, HealthMonitor
from repro.network.messaging import MessageLedger
from repro.network.partitions import (
    PartitionEpisode,
    PartitionPlan,
    PartitionSchedule,
)
from repro.network.topology import (
    augmented_mesh_topology,
    line_topology,
    mesh_topology,
    power_law_topology,
    random_regular_topology,
    random_topology,
    ring_topology,
    small_world_topology,
)

__all__ = [
    "ChurnConfig",
    "ChurnProcess",
    "CircuitBreaker",
    "CrashProcess",
    "FaultConfig",
    "FaultLog",
    "FaultPlan",
    "HealthConfig",
    "HealthMonitor",
    "MessageLedger",
    "OverlayGraph",
    "PartitionEpisode",
    "PartitionPlan",
    "PartitionSchedule",
    "augmented_mesh_topology",
    "line_topology",
    "mesh_topology",
    "power_law_topology",
    "random_regular_topology",
    "random_topology",
    "ring_topology",
    "small_world_topology",
]
