import os
import subprocess
import sys
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gsremotion import svm
from gsremotion.dataset import LABEL_ORDER
from gsremotion.features import N_FEATURES
from gsremotion.kernels import KernelSpec, finish_block, gram
from gsremotion.pipeline import PipelineConfig, fit_from_features
from gsremotion.svm import (
    TrainConfig,
    _kernel_overflow_refused,
    _smo_solve,
    train_binary,
)

from conftest import XOR_X, XOR_Y
from reference_checks import gram_reference, kernel_eval, kkt_violation
from smo_reference import smo_solve as reference_smo_solve


def decisions(machine, X):
    """machine's decision values on the rows of X through the library's one
    prediction path: as the machine of a two-label model whose features are
    the first catalog columns."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.zeros((len(X), N_FEATURES))
    rows[:, :X.shape[1]] = X
    model = svm.MulticlassSvmModel(machines=[machine], label_order=LABEL_ORDER[:2],
                                   feature_indices=range(1, X.shape[1] + 1))
    return svm.decision_values(model, rows)[:, 0]


def recover_alpha(model, X, y):
    """Map support coefficients back onto the full training set."""
    index = {tuple(row): i for i, row in enumerate(X)}
    alpha = np.zeros(len(y))
    for coef, sv in zip(model.dual_coef, model.support_vectors):
        i = index[tuple(sv)]
        alpha[i] = coef * y[i]
    return alpha


class TestKernelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelSpec(kind="laplacian")

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan])
    def test_bad_eta(self, eta):
        with pytest.raises(ValueError, match="eta"):
            KernelSpec(eta=eta)

    def test_eta_resolves_to_inverse_dimension(self):
        spec = KernelSpec(kind="rbf").resolved(20)
        assert spec.eta == pytest.approx(1.0 / 20.0)
        # an explicit eta survives resolution
        assert KernelSpec(kind="rbf", eta=2.0).resolved(20).eta == 2.0

    def test_linear_needs_no_eta(self):
        KernelSpec(kind="linear").require_resolved()
        with pytest.raises(ValueError, match="eta 1.0 given, but the linear kernel takes no eta"):
            KernelSpec(kind="linear", eta=1.0)

    def test_unresolved_rbf_rejected_at_eval(self):
        with pytest.raises(ValueError, match="resolved"):
            kernel_eval(KernelSpec(kind="rbf"), [1.0], [2.0])


class TestKernelEval:
    def test_rbf_at_zero_distance(self):
        spec = KernelSpec(kind="rbf", eta=0.7)
        assert kernel_eval(spec, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rbf_decays_with_distance(self):
        spec = KernelSpec(kind="rbf", eta=1.0)
        assert kernel_eval(spec, [0.0], [2.0]) == pytest.approx(np.exp(-4.0))

    def test_linear_orthogonal(self):
        assert kernel_eval(KernelSpec(kind="linear"), [1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=4), rng.normal(size=4)
        for spec in (KernelSpec(kind="rbf", eta=0.3), KernelSpec(kind="linear")):
            assert kernel_eval(spec, x, y) == pytest.approx(kernel_eval(spec, y, x), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            kernel_eval(KernelSpec(kind="linear"), [1.0, 2.0], [1.0])


class TestGram:
    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 3))
        for spec in (KernelSpec(kind="rbf", eta=0.4), KernelSpec(kind="linear")):
            K = gram(spec, X)
            for i in range(7):
                for j in range(7):
                    assert K[i, j] == pytest.approx(kernel_eval(spec, X[i], X[j]), abs=1e-12)

    @pytest.mark.parametrize("spec", [KernelSpec(kind="linear"),
                                      KernelSpec(kind="rbf", eta=0.8)])
    def test_gram_is_positive_semidefinite(self, spec):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 4))
        K = gram(spec, X)
        sym = (K + K.T) / 2.0
        assert np.linalg.eigvalsh(sym).min() >= -1e-8

    def test_cross_gram_shape(self):
        rng = np.random.default_rng(8)
        X, Z = rng.normal(size=(5, 3)), rng.normal(size=(9, 3))
        assert gram(KernelSpec(kind="rbf", eta=1.0), X, Z).shape == (5, 9)

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError, match="incompatible"):
            gram(KernelSpec(kind="linear"), np.ones((3, 2)), np.ones((3, 4)))


BIT_IDENTITY_SPECS = [KernelSpec(kind="linear"), KernelSpec(kind="rbf", eta=0.4)]


class TestGramBitIdentity:
    """gram works in place; it must give the out-of-place expressions' bits."""

    @pytest.mark.parametrize("with_z", [False, True], ids=["z-none", "z-given"])
    @pytest.mark.parametrize("spec", BIT_IDENTITY_SPECS, ids=lambda s: s.kind)
    def test_matches_out_of_place_reference(self, spec, with_z):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 6)) * 3.0
        Z = rng.normal(size=(25, 6)) if with_z else None
        K, ref = gram(spec, X, Z), gram_reference(spec, X, Z)
        assert_array_equal(K, ref)
        assert_array_equal(np.signbit(K), np.signbit(ref))  # signed zeros too

    def test_rbf_underflow_to_zero(self):
        X = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 1.0]])
        spec = KernelSpec(kind="rbf", eta=1.0)
        K = gram(spec, X)
        assert K[0, 1] == 0.0 and K[0, 2] > 0.0
        assert_array_equal(K, gram_reference(spec, X))

    @pytest.mark.parametrize("n_rows", [1, 3, 40])
    @pytest.mark.parametrize("spec", BIT_IDENTITY_SPECS, ids=lambda s: s.kind)
    def test_split_parts_keep_their_bits(self, spec, n_rows):
        """gram over parts of X stacked gives each part's rows the bits of
        gram over that part alone, an empty part and a transposed copy
        included: its products are formed in tiles of one shape."""
        rng = np.random.default_rng(11)
        Z = rng.normal(size=(n_rows, 6))
        parts = [rng.normal(size=(n, 6)) * 3.0 for n in (7, 0, 1, 12, 33)]
        K = gram(spec, np.concatenate(parts), Z)
        assert K.shape == (53, n_rows)
        assert_array_equal(gram(spec, np.asfortranarray(np.concatenate(parts)), Z), K)
        lo = 0
        for part in parts:
            rows = slice(lo, lo + len(part))
            assert_array_equal(K[rows], gram(spec, part, Z))
            assert_array_equal(np.signbit(K[rows]), np.signbit(gram(spec, part, Z)))
            lo += len(part)

    @pytest.mark.parametrize("spec", BIT_IDENTITY_SPECS, ids=lambda s: s.kind)
    def test_overflow_is_refused_as_before(self, spec):
        X = np.array([[1e200, 1.0], [2.0, 3.0]])
        for kernel_matrix in (gram, gram_reference):
            with pytest.raises(ValueError, match="kernel matrix overflows"):
                with _kernel_overflow_refused():
                    kernel_matrix(spec, X)


def assert_bits_equal(a, b):
    assert_array_equal(a, b)
    assert_array_equal(np.signbit(a), np.signbit(b))  # signed zeros too


class TestFinishedBlocks:
    """finish_block gives a cell the same bits whatever block it sits in:
    single rows and the diagonal of X @ X.T, finished alone, must carry the
    bits of the same cells of gram. (train_binary finishes rows of its own
    matrix-vector products, whose inner products may differ from gram's in
    the last bits; TestRowsOnDemand pins those.)"""

    @staticmethod
    def table():
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 6)) * 3.0
        X[5] *= 1e-110  # tiny and zero rows: products near and at the underflow
        X[6] *= -1e-170
        X[7] = 0.0
        return X

    @pytest.mark.parametrize("spec", BIT_IDENTITY_SPECS, ids=lambda s: s.kind)
    def test_rows_and_diagonal_match_gram(self, spec):
        X = self.table()
        K = gram(spec, X)
        inner = X @ X.T
        norms = (X * X).sum(axis=1)
        assert_bits_equal(finish_block(spec, inner.diagonal().copy(), norms, norms),
                          K.diagonal())
        for t in range(X.shape[0]):
            assert_bits_equal(finish_block(spec, inner[t], norms[t], norms), K[t])
        assert_bits_equal(inner, K)  # every row finished in place is the whole gram


def overflow_table(norm, kind, eta):
    """Eight rows whose squared norms all equal norm, two classes."""
    X = np.zeros((8, 2))
    X[:4, 0] = X[4:, 1] = np.sqrt(norm)
    X[1::2] *= -1.0
    y = np.array([1.0, -1.0] * 4)
    return X, y, TrainConfig(kernel=KernelSpec(kind=kind, eta=eta))


class TestOverflowBound:
    """train_binary finishes rows while the solver runs, so it refuses up
    front every table with a kernel cell that could overflow, by one bound on
    the largest squared norm N: 8 N max(eta, 1) for rbf."""

    MAX = np.finfo(np.float64).max

    @pytest.mark.parametrize("kind, norm, eta", [("rbf", MAX / 7.9, 0.5)], ids=["rbf"])
    def test_bound_beyond_the_float_range_is_refused_before_the_solver(
            self, monkeypatch, kind, norm, eta):
        monkeypatch.setattr("gsremotion.svm._smo_solve",
                            lambda *args: pytest.fail("the solver started"))
        X, y, config = overflow_table(norm, kind, eta)
        assert np.isfinite((X * X).sum(axis=1)).all() and np.isfinite(gram(config.kernel, X)).all()
        with pytest.raises(ValueError, match="kernel matrix overflows"):
            train_binary(X, y, config)

    @pytest.mark.parametrize("kind, norm, eta", [
        ("rbf", MAX / 8.1, 0.5), ("rbf", MAX / 8.1 / 3.0, 3.0),
    ], ids=["rbf", "rbf-wide-eta"])
    def test_values_just_under_the_bound_train_without_warnings(self, kind, norm, eta):
        X, y, config = overflow_table(norm, kind, eta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_binary(X, y, config)
        assert model.converged


class TestTrainConfigValidation:
    @pytest.mark.parametrize("c", [0.0, -1.0, np.inf])
    def test_bad_c(self, c):
        with pytest.raises(ValueError, match="c must"):
            TrainConfig(c=c)


class TestBinaryTraining:
    C = 10.0

    def fit_blobs(self, blobs):
        X, y = blobs
        config = TrainConfig(c=self.C, kernel=KernelSpec(kind="linear"))
        return train_binary(X, y, config), X, y

    def test_separable_blobs_train_perfectly(self, blobs):
        model, X, y = self.fit_blobs(blobs)
        assert model.converged
        f = decisions(model, X)
        assert np.all(np.sign(f) == y)

    def test_kkt_conditions_hold(self, blobs):
        model, X, y = self.fit_blobs(blobs)
        alpha = recover_alpha(model, X, y)
        K = gram(model.kernel, X)
        assert kkt_violation(K, y, alpha, self.C) <= 1e-3
        assert model.final_violation <= 1e-3

    def test_dual_feasibility(self, blobs):
        model, X, y = self.fit_blobs(blobs)
        alpha = recover_alpha(model, X, y)
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= self.C + 1e-12)
        assert abs(np.sum(alpha * y)) <= 1e-8
        # dual_coef is alpha_i y_i, so support coefficients are nonzero
        assert np.all(model.dual_coef != 0.0)

    def test_free_support_vectors_sit_on_the_margin(self, blobs):
        model, X, y = self.fit_blobs(blobs)
        alpha = recover_alpha(model, X, y)
        free = (alpha > 1e-9) & (alpha < self.C - 1e-9)
        assert free.any()
        f = decisions(model, X)
        assert np.max(np.abs(np.abs(f[free]) - 1.0)) <= 5e-2

    def test_objective_never_decreases(self, blobs):
        model, _, _ = self.fit_blobs(blobs)
        trace = model.objective_trace
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_xor_needs_the_rbf_kernel(self):
        config = TrainConfig(c=10.0, kernel=KernelSpec(kind="rbf", eta=1.0))
        model = train_binary(XOR_X, XOR_Y, config)
        f = decisions(model, XOR_X)
        assert np.all(np.sign(f) == XOR_Y)

    def test_unset_eta_resolves_against_train_width(self, blobs):
        X, y = blobs
        model = train_binary(X, y, TrainConfig(kernel=KernelSpec(kind="rbf")))
        assert model.kernel.eta == pytest.approx(0.5)  # 1/2 features

    def test_training_is_deterministic(self, blobs):
        X, y = blobs
        config = TrainConfig(c=1.0, kernel=KernelSpec(kind="rbf", eta=0.5))
        a = train_binary(X, y, config)
        b = train_binary(X, y, config)
        assert_array_equal(a.dual_coef, b.dual_coef)
        assert_array_equal(a.support_vectors, b.support_vectors)
        assert a.bias == b.bias

    def test_decision_value_matches_batch(self, blobs):
        model, X, _ = self.fit_blobs(blobs)
        assert decisions(model, X[3:4])[0] == decisions(model, X)[3]

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(ValueError, match="both classes"):
            train_binary(X, np.ones(6), TrainConfig())

    def test_bad_labels_rejected(self):
        X = np.random.default_rng(0).normal(size=(4, 2))
        with pytest.raises(ValueError, match="-1 and \\+1"):
            train_binary(X, np.array([1.0, 0.0, 1.0, -1.0]), TrainConfig())

    def test_shape_mismatch_rejected(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError, match="does not match"):
            train_binary(X, np.array([1.0, -1.0]), TrainConfig())

    def test_non_finite_rejected(self):
        X = np.ones((4, 2))
        X[1, 0] = np.nan
        y = np.array([1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="non-finite"):
            train_binary(X, y, TrainConfig())


class TestAgainstExhaustiveSolver:
    def test_small_problems_reach_the_global_optimum(self, qp_oracle):
        # every KKT support pattern of the dual is enumerable for tiny n,
        # so the oracle's optimum is exact
        rng = np.random.default_rng(11)
        config = TrainConfig(c=1.0, kernel=KernelSpec(kind="linear"))
        checked = 0
        for n in (4, 5, 6):
            for _ in range(4):
                X = rng.normal(size=(n, 2))
                y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
                if np.all(y == y[0]):
                    y[0] = -y[0]
                model = train_binary(X, y, config)
                smo_obj = float(model.objective_trace[-1])
                best = qp_oracle(gram(config.kernel, X), y, 1.0)
                assert smo_obj == pytest.approx(best, rel=1e-4, abs=1e-10)
                checked += 1
        assert checked == 12


class TestAgainstQpSolver:
    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_dual_objective_matches_slsqp(self, n):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        # overlapping classes, so the optimum has free and bounded alphas
        y = np.where(X[:, 0] + 0.8 * rng.normal(size=n) > 0, 1.0, -1.0)
        config = TrainConfig(c=1.0, kernel=KernelSpec(kind="rbf", eta=0.5))
        model = train_binary(X, y, config)
        assert model.converged
        alpha = recover_alpha(model, X, y)

        Q = gram(model.kernel, X) * np.outer(y, y)
        qp = optimize.minimize(
            lambda a: 0.5 * a @ Q @ a - a.sum(), np.zeros(n),
            jac=lambda a: Q @ a - 1.0, method="SLSQP",
            bounds=[(0.0, config.c)] * n,
            constraints=[{"type": "eq", "fun": lambda a: y @ a, "jac": lambda a: y}],
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        assert qp.success
        best = -qp.fun
        smo_obj = float(model.objective_trace[-1])
        # SMO stops once the violating-pair gap m - M is <= tol; by convexity
        # the optimum then lies at most (m - M)/2 * ||alpha - alpha*||_1 above
        # the SMO objective.
        slack = svm.TOLERANCE / 2.0 * np.abs(alpha - qp.x).sum()
        assert best - slack - 1e-9 * best <= smo_obj <= best + 1e-8 * best


def duplicated_problem(kind, seed, n=40):
    """Half the rows repeat the other half, so selection scores tie exactly."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n // 2, 3))
    X = np.vstack([base, base])
    y = np.concatenate([np.where(rng.random(n // 2) < 0.5, -1.0, 1.0)] * 2)
    y[0], y[1] = 1.0, -1.0
    if kind == "poly":
        # (0.3 <x, z> + 1)^3, built here as no library kernel gives it: PSD,
        # with a diagonal that is not all 1 and a wider range than linear's
        K = (0.3 * (X @ X.T) + 1.0) ** 3
    else:
        K = gram({"linear": KernelSpec(kind="linear"),
                  "rbf": KernelSpec(kind="rbf", eta=0.5)}[kind], X)
    return K, y, rng.random(n)


def full_matrix_source(K):
    """_smo_solve's row source and diagonal for a finished kernel matrix."""
    return K.__getitem__, K.diagonal().copy()


class TestReferenceParity:
    """The lean solver, given its rows in descending tiebreak order, must
    reproduce the whole-array reference bit for bit."""

    @pytest.mark.parametrize("max_iter", [1, 5, 50, 2_000])
    @pytest.mark.parametrize("c", [0.01, 1e3])
    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_matches_reference(self, kind, c, max_iter):
        for seed in range(3):
            K, y, tiebreak = duplicated_problem(kind, seed)
            ref = reference_smo_solve(K * np.outer(y, y), y, c, 1e-3, max_iter, tiebreak)
            p = np.argsort(-tiebreak, kind="stable")
            new = _smo_solve(*full_matrix_source(K[np.ix_(p, p)]), y[p], c, 1e-3, max_iter)
            back = np.argsort(p)
            assert_array_equal(new[0][back], ref[0])
            assert_array_equal(new[1][back], ref[1])
            assert new[2] == ref[2]
            assert new[3] == ref[3]
            assert_allclose(new[4], ref[4], rtol=1e-9, atol=1e-9)

    def test_solver_leaves_its_inputs_alone(self):
        K, y, _ = duplicated_problem("rbf", 0)
        copies = K.copy(), y.copy()
        _smo_solve(*full_matrix_source(K), y, 1.0, 1e-3, 100)
        for before, after in zip(copies, (K, y)):
            assert_array_equal(before, after)


class TestRowsOnDemand:
    """train_binary hands the solver each row as one product Xp[t] @ Xp.T,
    finished on first read, and a diagonal finished from the squared norms;
    the solve must be the one on the same rows all finished up front, bit
    for bit."""

    @pytest.mark.parametrize("max_passes", [1, 50, svm.MAX_PASSES])
    @pytest.mark.parametrize("n", [37, 600])
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_train_binary_matches_a_full_matrix_solve(self, monkeypatch, kind, n, max_passes):
        rng = np.random.default_rng(n)
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        X = rng.normal(size=(n, 8)) + 0.5 * y[:, None]
        config = TrainConfig(kernel=KernelSpec(kind=kind), seed=3)
        monkeypatch.setattr(svm, "MAX_PASSES", max_passes)
        solves = []

        def recorded(row, kdiag, *args):
            solves.append(_smo_solve(row, kdiag, *args))
            return solves[-1]

        monkeypatch.setattr(svm, "_smo_solve", recorded)
        train_binary(X, y, config)
        p = np.argsort(-np.random.default_rng(config.seed).random(n), kind="stable")
        spec = config.kernel.resolved(X.shape[1])
        Xp = X[p]
        XpT = np.ascontiguousarray(Xp.T)
        norms = (Xp * Xp).sum(axis=1)
        K = np.stack([finish_block(spec, Xp[t] @ XpT, norms[t], norms) for t in range(n)])
        kdiag = finish_block(spec, norms.copy(), norms, norms)
        full = _smo_solve(K.__getitem__, kdiag, y[p], config.c, svm.TOLERANCE, max_passes)
        (lazy,) = solves
        for got, want in zip(lazy, full):
            assert_bits_equal(got, want)  # alpha, G, iterations, converged, trace

    def test_default_fit_finishes_few_kernel_cells(self, default_features, monkeypatch):
        """The default fit reads about 30% of its kernel rows; finishing
        every row, as an eager gram does, would be 100%."""
        finished = []

        def counted(spec, inner, *norms):
            finished.append(inner.size)
            return finish_block(spec, inner, *norms)

        monkeypatch.setattr(svm, "finish_block", counted)
        fit_from_features(default_features, PipelineConfig(seed=42))
        per_label = [default_features.labels.count(lab) for lab in set(default_features.labels)]
        cells = sum((a + b) ** 2 for a, b in combinations(per_label, 2))
        assert sum(finished) <= 0.4 * cells


class TestMemoryBudget:
    """A machine holds only the kernel rows its solver has read, each
    computed on first read, and its solver keeps one curvature vector per
    distinct first index. After one step an n x n array of any kind, such as
    the product X @ X.T, would break the budget; converged, the kept rows and
    vectors together may not pass 2.1 n^2."""

    N = 600
    KINDS = ["linear", "rbf"]

    def peak(self, monkeypatch, kind, max_passes):
        """train_binary's tracemalloc peak in n^2 floats."""
        rng = np.random.default_rng(12)
        X = rng.normal(size=(self.N, 15))
        y = np.where(rng.random(self.N) < 0.5, -1.0, 1.0)
        config = TrainConfig(kernel=KernelSpec(kind=kind))
        monkeypatch.setattr(svm, "MAX_PASSES", max_passes)
        tracemalloc.start()
        try:
            train_binary(X, y, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (self.N ** 2 * 8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_train_binary_peak_allocation(self, monkeypatch, kind):
        peak = self.peak(monkeypatch, kind, max_passes=1)
        assert peak <= 0.25, f"peak {peak:.2f} n^2 floats"

    @pytest.mark.parametrize("kind", KINDS)
    def test_converged_train_binary_peak_allocation(self, monkeypatch, kind):
        peak = self.peak(monkeypatch, kind, max_passes=svm.MAX_PASSES)
        assert peak <= 2.1, f"peak {peak:.2f} n^2 floats"

    def test_predict_batch_peak_does_not_grow_with_the_batch(self):
        """predict_batch forms its kernel a block of rows at a time, so a
        table 8 blocks long peaks within 2x of one block; one (rows x
        support vectors) array over the whole table would take about 8x."""
        rng = np.random.default_rng(13)
        spec = KernelSpec(kind="rbf").resolved(N_FEATURES)
        machines = [svm.BinarySvmModel(support_vectors=rng.normal(size=(500, N_FEATURES)),
                                       dual_coef=rng.normal(size=500), bias=0.0, kernel=spec)
                    for _ in range(3)]
        model = svm.MulticlassSvmModel(machines=machines, label_order=LABEL_ORDER[:3],
                                       feature_indices=range(1, N_FEATURES + 1))
        values = rng.normal(size=(8 * model.block_rows, N_FEATURES))

        def peak(rows):
            tracemalloc.start()
            try:
                svm.predict_batch(model, rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = peak(values[:model.block_rows]), peak(values)
        assert eight <= 2 * one, f"8 blocks peak {eight} bytes, one block {one}"


THREADS_CHILD = """
import hashlib
import numpy as np
from gsremotion.kernels import KernelSpec
from gsremotion.svm import TrainConfig, train_binary
rng = np.random.default_rng(0)
y = np.where(rng.random(658) < 0.5, -1.0, 1.0)
X = rng.normal(size=(658, 15)) + 0.3 * y[:, None]
fits = hashlib.sha256()
for kind in ("linear", "rbf"):
    m = train_binary(X, y, TrainConfig(kernel=KernelSpec(kind=kind)))
    fits.update(m.dual_coef.tobytes() + np.float64(m.bias).tobytes() + str(m.iterations).encode())
a, b = rng.normal(size=(2, 1_000_000))
print(fits.hexdigest(), np.dot(a, b).hex())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one core runs one BLAS thread")
def test_training_bits_do_not_depend_on_blas_threads():
    """Each kernel row is its own matrix-vector product, so a machine's bits
    are the same on 1 and 2 OpenBLAS threads. The dot product of two 1e6-long
    vectors is not: threaded ddot splits the sum, on the SkylakeX, Haswell and
    Sandybridge kernels alike, which shows that the threaded path ran."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    fits, dots = set(), set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREADS_CHILD], capture_output=True,
                              text=True, env=env, check=True, timeout=120)
        fit, dot = proc.stdout.split()
        fits.add(fit)
        dots.add(dot)
    assert len(dots) == 2, "np.dot has the same bits on 1 and 2 threads"
    assert len(fits) == 1


class TestIterationCount:
    """Second-order working-set selection takes 825 SMO steps on the default
    fit and first-order (maximal violating pair) selection 1,968: the bound
    tells the two apart."""

    def test_default_fit_converges_in_few_iterations(self, default_features):
        config = PipelineConfig(seed=42)
        machines = fit_from_features(default_features, config).model.machines
        assert all(m.converged for m in machines)
        assert sum(m.iterations for m in machines) <= 1_000


def test_kkt_violation_empty_index_sets():
    K = np.eye(2)
    y = np.array([1.0, 1.0])
    alpha = np.array([1.0, 1.0])  # everything at the C bound on one side
    assert kkt_violation(K, y, alpha, 1.0) == 0.0
