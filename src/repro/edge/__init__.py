"""Edge substrate: device profiles, cost projection, network, clusters,
and population arrival/churn processes."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".arrivals": (
        "CHURN_SIGMA", "PopulationModel", "PopulationSchedule",
        "create_population",
    ),
    ".cluster": (
        "EdgeCluster", "jetson_cluster", "jetson_raspberry_cluster",
        "uniform_cluster",
    ),
    ".cost": (
        "BYTES_PER_PARAM", "REFERENCE_MODELS", "REFERENCE_SAMPLE_BYTES",
        "TRAIN_FLOPS_MULTIPLIER", "ModelCostModel", "ReferenceModel",
    ),
    ".device": (
        "DEVICE_CATALOG", "GB", "DeviceProfile", "JETSON_AGX", "JETSON_NANO",
        "JETSON_TX2", "JETSON_XAVIER_NX", "RASPBERRY_PI_2GB",
        "RASPBERRY_PI_4GB", "RASPBERRY_PI_8GB", "get_device",
    ),
    ".network": (
        "FIG6_BANDWIDTHS", "KB", "MB", "NetworkLink", "NetworkModel",
        "format_bandwidth",
    ),
})

__all__ = [
    "BYTES_PER_PARAM",
    "CHURN_SIGMA",
    "DEVICE_CATALOG",
    "DeviceProfile",
    "EdgeCluster",
    "FIG6_BANDWIDTHS",
    "GB",
    "JETSON_AGX",
    "JETSON_NANO",
    "JETSON_TX2",
    "JETSON_XAVIER_NX",
    "KB",
    "MB",
    "ModelCostModel",
    "NetworkLink",
    "NetworkModel",
    "PopulationModel",
    "PopulationSchedule",
    "RASPBERRY_PI_2GB",
    "RASPBERRY_PI_4GB",
    "RASPBERRY_PI_8GB",
    "REFERENCE_MODELS",
    "REFERENCE_SAMPLE_BYTES",
    "ReferenceModel",
    "TRAIN_FLOPS_MULTIPLIER",
    "create_population",
    "format_bandwidth",
    "get_device",
    "jetson_cluster",
    "jetson_raspberry_cluster",
    "uniform_cluster",
]
