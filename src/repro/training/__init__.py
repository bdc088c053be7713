"""LLM training workload model: architectures, 3D-parallel strategies,
communication volumes, placement, and network-coupled iteration timing."""

from repro.training.comms import (
    BYTES_PER_ELEMENT,
    CommVolumes,
    activation_bytes,
    comm_volumes,
    compute_flops,
    ring_factor,
)
from repro.training.models import (
    GPT_200B,
    LLAMA_2B,
    LLAMA_13B,
    LLAMA_33B,
    MODELS,
    Framework,
    LlmModel,
    ParallelStrategy,
    TABLE1_ROWS,
    Table1Row,
)
from repro.training.parallelism import Placement, cross_segment_edges, place_job
from repro.training.trainer import (
    TRANSPORTS,
    VSTELLAR_VIRT_OVERHEAD,
    IterationBreakdown,
    TrainingSimulation,
    TransportConfig,
    iteration_breakdown,
)

__all__ = [
    "BYTES_PER_ELEMENT",
    "CommVolumes",
    "activation_bytes",
    "comm_volumes",
    "compute_flops",
    "ring_factor",
    "GPT_200B",
    "LLAMA_2B",
    "LLAMA_13B",
    "LLAMA_33B",
    "MODELS",
    "Framework",
    "LlmModel",
    "ParallelStrategy",
    "TABLE1_ROWS",
    "Table1Row",
    "Placement",
    "cross_segment_edges",
    "place_job",
    "TRANSPORTS",
    "VSTELLAR_VIRT_OVERHEAD",
    "IterationBreakdown",
    "TrainingSimulation",
    "TransportConfig",
    "iteration_breakdown",
]
