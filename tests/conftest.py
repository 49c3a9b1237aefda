import itertools

import numpy as np
import pytest

from gsremotion.dataset import EmotionLabel
from gsremotion.features import extract_dataset_features
from gsremotion.pipeline import PipelineConfig, prepare_dataset
from gsremotion.synth import SynthConfig, generate_dataset


@pytest.fixture(scope="session")
def default_corpus():
    """The frozen 257-record corpus every directional check runs on."""
    return generate_dataset(SynthConfig(seed=42))


@pytest.fixture(scope="session")
def default_features(default_corpus):
    """Feature table after denoising + calm-baseline signal normalization."""
    config = PipelineConfig(seed=42)
    prepared = prepare_dataset(default_corpus, config)
    return extract_dataset_features(prepared)


@pytest.fixture(scope="session")
def small_corpus():
    """20 records, 16 s each: fast enough for per-test pipeline fits."""
    counts = {lab: 4 for lab in EmotionLabel}
    return generate_dataset(
        SynthConfig(per_label_counts=counts, duration_s=16.0, seed=7)
    )


@pytest.fixture(scope="session")
def small_features(small_corpus):
    """Prepared feature table of the small corpus."""
    config = PipelineConfig(seed=42)
    return extract_dataset_features(prepare_dataset(small_corpus, config))


def dual_objective(alpha, Q):
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def exhaustive_qp(K, y, C):
    """Global max of the SVM dual found by enumerating KKT support patterns.

    Every optimum has each alpha_i at 0, at C, or free (stationary); trying
    all 3^n patterns and solving the free set's linear system covers the
    optimum exactly, without gradient steps. Feasible only for tiny n.
    """
    n = len(y)
    Q = K * np.outer(y, y)
    best = 0.0  # alpha = 0 is always feasible
    for pattern in itertools.product((0, 1, 2), repeat=n):
        fixed = np.array([C if p == 1 else 0.0 for p in pattern])
        free = [i for i, p in enumerate(pattern) if p == 2]
        bound = [i for i, p in enumerate(pattern) if p == 1]
        alpha = fixed.copy()
        if free:
            nf = len(free)
            A = np.zeros((nf + 1, nf + 1))
            A[:nf, :nf] = Q[np.ix_(free, free)]
            A[:nf, nf] = y[free]
            A[nf, :nf] = y[free]
            rhs = np.ones(nf + 1)
            if bound:
                rhs[:nf] -= Q[np.ix_(free, bound)] @ fixed[bound]
                rhs[nf] = -(y[bound] @ fixed[bound])
            else:
                rhs[nf] = 0.0
            sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
            if not np.allclose(A @ sol, rhs, atol=1e-8):
                continue  # singular pattern with no stationary point
            alpha[free] = sol[:nf]
        if np.any(alpha < -1e-9) or np.any(alpha > C + 1e-9):
            continue
        if abs(alpha @ y) > 1e-8:
            continue
        best = max(best, dual_objective(np.clip(alpha, 0.0, C), Q))
    return best


@pytest.fixture(scope="session")
def qp_oracle():
    return exhaustive_qp


def make_blobs(n_per_side=20, margin=1.0, seed=3):
    """Two linearly separable 2-D clusters, gap at least `margin` on x0."""
    rng = np.random.default_rng(seed)
    half = margin / 2.0
    pos = np.column_stack([
        rng.uniform(half + 0.5, half + 2.5, n_per_side),
        rng.normal(0.0, 1.0, n_per_side),
    ])
    neg = np.column_stack([
        rng.uniform(-half - 2.5, -half - 0.5, n_per_side),
        rng.normal(0.0, 1.0, n_per_side),
    ])
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_per_side), -np.ones(n_per_side)])
    return X, y


XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([1.0, 1.0, -1.0, -1.0])


@pytest.fixture(scope="session")
def blobs():
    return make_blobs()


def key_paths(node, prefix=()):
    """Every key path in a JSON tree; a path ends at a dict key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, prefix + (i,))


def delete_key(payload, key_path):
    """Delete the key at the end of key_path from a JSON tree, in place."""
    parent = payload
    for step in key_path[:-1]:
        parent = parent[step]
    del parent[key_path[-1]]
