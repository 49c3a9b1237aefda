"""Emotion classification from galvanic skin response signals.

Pipeline: wavelet denoising, calm-baseline normalization, a 30-feature
catalog over the signal and its differences plus spectrum, correlation-based
feature selection, and one-vs-one SVM classification over five emotions.
Every public name lives in its module (`gsremotion.pipeline`, `.svm`, ...).
"""

# Only the names the benchmark (perfbench/) reads off the package stay here.
from .dataset import LABEL_ORDER
from .wavelet import denoise

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the SMO solver: always "python", the numpy loop in svm.

    There is one solver; this exists because benchmark records read it.
    """
    return "python"
