"""Model zoo: the paper's 6-layer CNN, ResNet-18, and the eight Fig. 9 DNNs."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".base": ("ImageClassifier",),
    ".densenet": ("DenseNet", "densenet"),
    ".inception": ("Inception", "inception"),
    ".mobilenet": ("MobileNetV2", "mobilenet_v2", "mobilenet_v2_x2"),
    ".resnet": (
        "BasicBlock", "Bottleneck", "ResNet", "resnet18", "resnet152",
        "resnext", "wide_resnet",
    ),
    ".senet": ("SEModule", "senet18"),
    ".shufflenet": ("ShuffleNetV2", "shufflenet_v2"),
    ".six_cnn": ("SixCNN",),
    ".zoo": (
        "FIG9_MODELS", "available_models", "build_model", "model_family",
        "register_model",
    ),
})

__all__ = [
    "BasicBlock",
    "Bottleneck",
    "DenseNet",
    "FIG9_MODELS",
    "ImageClassifier",
    "Inception",
    "MobileNetV2",
    "ResNet",
    "SEModule",
    "ShuffleNetV2",
    "SixCNN",
    "available_models",
    "build_model",
    "densenet",
    "inception",
    "mobilenet_v2",
    "mobilenet_v2_x2",
    "model_family",
    "register_model",
    "resnet18",
    "resnet152",
    "resnext",
    "senet18",
    "shufflenet_v2",
    "wide_resnet",
]
