"""Datasets: synthetic stand-ins for the paper's five benchmarks + federated splits."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".federated": (
        "ClientData", "ClientTask", "FederatedContinualBenchmark",
        "allocate_task_classes", "build_benchmark", "single_client_benchmark",
        "task_classes",
    ),
    ".loader": ("endless_batches", "iterate_batches", "sample_batch"),
    ".scenario": (
        "SCENARIOS", "ClientDataFactory", "DirichletPartitioner",
        "Partitioner", "PowerLawPartitioner", "RangePartitioner", "Scenario",
        "TaskStream", "available_scenarios", "create_scenario",
    ),
    ".specs": (
        "ALL_SPECS", "DatasetSpec", "cifar100_like", "combined_spec",
        "core50_like", "fc100_like", "get_spec", "miniimagenet_like",
        "svhn_like", "tinyimagenet_like",
    ),
    ".synthetic": ("ClientTransform", "SyntheticImageSource"),
})

__all__ = [
    "ALL_SPECS",
    "ClientData",
    "ClientDataFactory",
    "ClientTask",
    "ClientTransform",
    "DatasetSpec",
    "DirichletPartitioner",
    "FederatedContinualBenchmark",
    "Partitioner",
    "PowerLawPartitioner",
    "RangePartitioner",
    "SCENARIOS",
    "Scenario",
    "SyntheticImageSource",
    "TaskStream",
    "allocate_task_classes",
    "available_scenarios",
    "build_benchmark",
    "create_scenario",
    "cifar100_like",
    "combined_spec",
    "core50_like",
    "endless_batches",
    "fc100_like",
    "get_spec",
    "iterate_batches",
    "miniimagenet_like",
    "sample_batch",
    "single_client_benchmark",
    "svhn_like",
    "task_classes",
    "tinyimagenet_like",
]
