import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gsremotion.kernels import KernelSpec, canonical_kind, gram, kernel_eval
from gsremotion.svm import (
    TrainConfig,
    _smo_solve,
    decision_values,
    kkt_violation,
    train_binary,
)

from conftest import XOR_X, XOR_Y
from smo_reference import smo_solve as reference_smo_solve


def recover_alpha(model, X, y):
    """Map support coefficients back onto the full training set."""
    index = {tuple(row): i for i, row in enumerate(X)}
    alpha = np.zeros(len(y))
    for coef, sv in zip(model.dual_coef, model.support_vectors):
        i = index[tuple(sv)]
        alpha[i] = coef * y[i]
    return alpha


class TestKernelSpec:
    def test_poly_alias(self):
        assert canonical_kind("poly") == "polynomial"
        assert KernelSpec(kind="Poly").kind == "polynomial"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            KernelSpec(kind="laplacian")

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan])
    def test_bad_eta(self, eta):
        with pytest.raises(ValueError, match="eta"):
            KernelSpec(eta=eta)

    def test_bad_r(self):
        with pytest.raises(ValueError, match="r must"):
            KernelSpec(r=np.inf)

    @pytest.mark.parametrize("degree", [0, 2.5])
    def test_bad_degree(self, degree):
        with pytest.raises(ValueError, match="degree"):
            KernelSpec(kind="polynomial", degree=degree)

    def test_eta_resolves_to_inverse_dimension(self):
        spec = KernelSpec(kind="rbf").resolved(20)
        assert spec.eta == pytest.approx(1.0 / 20.0)
        # an explicit eta survives resolution
        assert KernelSpec(kind="rbf", eta=2.0).resolved(20).eta == 2.0

    def test_linear_needs_no_eta(self):
        KernelSpec(kind="linear").require_resolved()

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

    def test_polynomial(self):
        spec = KernelSpec(kind="polynomial", eta=1.0, r=0.0, degree=1)
        assert kernel_eval(spec, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)
        cubed = KernelSpec(kind="polynomial", eta=1.0, r=0.0, degree=3)
        assert kernel_eval(cubed, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0 ** 3)

    def test_linear_orthogonal(self):
        assert kernel_eval(KernelSpec(kind="linear"), [1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_sigmoid(self):
        spec = KernelSpec(kind="sigmoid", eta=0.5, r=-1.0)
        assert kernel_eval(spec, [2.0], [3.0]) == pytest.approx(np.tanh(2.0))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=4), rng.normal(size=4)
        for spec in (KernelSpec(kind="rbf", eta=0.3),
                     KernelSpec(kind="polynomial", eta=0.2, r=1.0),
                     KernelSpec(kind="linear")):
            assert kernel_eval(spec, x, y) == pytest.approx(kernel_eval(spec, y, x), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            kernel_eval(KernelSpec(kind="linear"), [1.0, 2.0], [1.0])


class TestGram:
    def test_matches_pairwise_eval(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 3))
        for spec in (KernelSpec(kind="rbf", eta=0.4),
                     KernelSpec(kind="polynomial", eta=0.5, r=1.0, degree=2),
                     KernelSpec(kind="sigmoid", eta=0.1, r=0.0)):
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


class TestTrainConfigValidation:
    @pytest.mark.parametrize("c", [0.0, -1.0, np.inf])
    def test_bad_c(self, c):
        with pytest.raises(ValueError, match="c must"):
            TrainConfig(c=c)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            TrainConfig(tolerance=0.0)

    def test_bad_max_passes(self):
        with pytest.raises(ValueError, match="max_passes"):
            TrainConfig(max_passes=0)


class TestBinaryTraining:
    C = 10.0

    def fit_blobs(self, blobs):
        X, y = blobs
        config = TrainConfig(c=self.C, kernel=KernelSpec(kind="linear"))
        return train_binary(X, y, config), X, y

    def test_separable_blobs_train_perfectly(self, blobs):
        model, X, y = self.fit_blobs(blobs)
        assert model.converged
        f = decision_values(model, X)
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
        f = decision_values(model, X)
        assert np.max(np.abs(np.abs(f[free]) - 1.0)) <= 5e-2

    def test_objective_never_decreases(self, blobs):
        model, _, _ = self.fit_blobs(blobs)
        trace = model.objective_trace
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_xor_needs_the_rbf_kernel(self):
        config = TrainConfig(c=10.0, kernel=KernelSpec(kind="rbf", eta=1.0))
        model = train_binary(XOR_X, XOR_Y, config)
        f = decision_values(model, XOR_X)
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
        assert decision_values(model, X[3:4])[0] == pytest.approx(
            decision_values(model, X)[3], rel=1e-12)

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
    TOL = 1e-3

    @pytest.mark.parametrize("n", [20, 50, 100])
    def test_dual_objective_matches_slsqp(self, n):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        # overlapping classes, so the optimum has free and bounded alphas
        y = np.where(X[:, 0] + 0.8 * rng.normal(size=n) > 0, 1.0, -1.0)
        config = TrainConfig(c=1.0, kernel=KernelSpec(kind="rbf", eta=0.5),
                             tolerance=self.TOL)
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
        slack = self.TOL / 2.0 * np.abs(alpha - qp.x).sum()
        assert best - slack - 1e-9 * best <= smo_obj <= best + 1e-8 * best


def duplicated_problem(kind, seed, n=40):
    """Half the rows repeat the other half, so selection scores tie exactly."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n // 2, 3))
    X = np.vstack([base, base])
    y = np.concatenate([np.where(rng.random(n // 2) < 0.5, -1.0, 1.0)] * 2)
    y[0], y[1] = 1.0, -1.0
    spec = {"linear": KernelSpec(kind="linear"),
            "rbf": KernelSpec(kind="rbf", eta=0.5),
            "poly": KernelSpec(kind="polynomial", eta=0.3, r=1.0, degree=3)}[kind]
    return gram(spec, X) * np.outer(y, y), y, rng.random(n)


class TestReferenceParity:
    """The lean solver must reproduce the whole-array reference bit for bit."""

    @pytest.mark.parametrize("max_iter", [1, 5, 50, 2_000])
    @pytest.mark.parametrize("c", [0.01, 1e3])
    @pytest.mark.parametrize("kind", ["linear", "rbf", "poly"])
    def test_matches_reference(self, kind, c, max_iter):
        for seed in range(3):
            Q, y, tiebreak = duplicated_problem(kind, seed)
            ref = reference_smo_solve(Q, y, c, 1e-3, max_iter, tiebreak)
            new = _smo_solve(Q.copy(), y, c, 1e-3, max_iter, tiebreak)
            assert_array_equal(new[0], ref[0])
            assert_array_equal(new[1], ref[1])
            assert new[2] == ref[2]
            assert new[3] == ref[3]
            assert_allclose(new[4], ref[4], rtol=1e-9, atol=1e-9)

    def test_solver_leaves_its_inputs_alone(self):
        Q, y, tiebreak = duplicated_problem("rbf", 0)
        copies = Q.copy(), y.copy(), tiebreak.copy()
        _smo_solve(Q, y, 1.0, 1e-3, 100, tiebreak)
        for before, after in zip(copies, (Q, y, tiebreak)):
            assert_array_equal(before, after)


def test_kkt_violation_empty_index_sets():
    K = np.eye(2)
    y = np.array([1.0, 1.0])
    alpha = np.array([1.0, 1.0])  # everything at the C bound on one side
    assert kkt_violation(K, y, alpha, 1.0) == 0.0
