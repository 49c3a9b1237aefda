"""Emotion classification from galvanic skin response signals.

Pipeline: wavelet denoising, calm-baseline normalization, a 30-feature
catalog over the signal and its differences plus spectrum, correlation-based
feature selection, and one-vs-one SVM classification over five emotions.
"""

from .dataset import (
    LABEL_ORDER,
    Dataset,
    EmotionLabel,
    GsrRecord,
    load_dataset,
    load_record,
    parse_label,
    save_dataset,
    save_record,
)
from .evaluate import (
    ConfusionMatrix,
    CvReport,
    HeldOutGuard,
    accuracy,
    kfold_cross_validate,
    per_label_rates,
    sampled_label_rates,
)
from .features import (
    FEATURE_NAMES,
    FeatureMatrix,
    extract_dataset_features,
    extract_features,
    read_feature_csv,
    write_feature_csv,
)
from .kernels import KernelSpec, gram
from .pipeline import (
    FitResult,
    PipelineConfig,
    comparison_report,
    evaluate_model,
    fit_from_features,
    predict_rows,
)
from .preprocess import preprocess_dataset
from .selection import (
    CovarianceMatrix,
    SelectionResult,
    covariance_matrix,
    select_features,
)
from .svm import (
    BinarySvmModel,
    MulticlassSvmModel,
    TrainConfig,
    load_model,
    predict_batch,
    save_model,
    train_binary,
    train_multiclass,
)
from .synth import LabelBands, SynthConfig, generate_dataset, generate_record
from .wavelet import (
    FilterBank,
    WaveletDecomposition,
    daubechies_filter_bank,
    denoise,
    dwt_decompose,
    dwt_reconstruct,
    soft_threshold,
)

__version__ = "0.1.0"


def active_backend() -> str:
    """Name of the SMO solver: always "python", the numpy loop in svm.

    There is one solver; this exists because benchmark records read it.
    """
    return "python"
