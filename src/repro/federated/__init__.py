"""Federated-learning substrate: nodes, platform, links, aggregation, sampling."""

from .aggregation import coordinate_median, trimmed_mean, weighted_mean
from .hierarchy import GatewayAssignment, HierarchicalPlatform
from .network import CommunicationLog, LinkModel, TransferRecord
from .node import EdgeNode, build_nodes
from .platform import Platform
from .privacy import GaussianMechanism, SecureAggregator
from .compression import CompressedPlatform, TopKSparsifier, UniformQuantizer
from .fleet import (
    BufferedAggregator,
    BufferEntry,
    FleetConfig,
    FleetRegistry,
    FleetResult,
    FleetSimulator,
    ShardFactory,
    SyntheticShardFactory,
)
from .sampling import (
    DropoutInjector,
    FullParticipation,
    IdSpaceSampler,
    SeededSampler,
    UniformSampler,
    sample_id_space,
)
from .simulation import (
    DeviceProfile,
    FleetTimeline,
    RoundOutcome,
    deadline_survivors,
    sample_fleet,
    simulate_round,
    simulate_synchronous_rounds,
)

__all__ = [
    "coordinate_median",
    "trimmed_mean",
    "weighted_mean",
    "GatewayAssignment",
    "HierarchicalPlatform",
    "CommunicationLog",
    "LinkModel",
    "TransferRecord",
    "EdgeNode",
    "build_nodes",
    "Platform",
    "GaussianMechanism",
    "SecureAggregator",
    "BufferedAggregator",
    "BufferEntry",
    "FleetConfig",
    "FleetRegistry",
    "FleetResult",
    "FleetSimulator",
    "ShardFactory",
    "SyntheticShardFactory",
    "DropoutInjector",
    "FullParticipation",
    "IdSpaceSampler",
    "SeededSampler",
    "UniformSampler",
    "sample_id_space",
    "CompressedPlatform",
    "TopKSparsifier",
    "UniformQuantizer",
    "DeviceProfile",
    "FleetTimeline",
    "RoundOutcome",
    "deadline_survivors",
    "sample_fleet",
    "simulate_round",
    "simulate_synchronous_rounds",
]
