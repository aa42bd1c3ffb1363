"""The cooperative-game layer: seeded parity across every Shapley family,
shared telemetry, and graceful degradation under budgets.

The games refactor's contract is that routing a workload through
``repro.games`` changes *nothing numerically*: every family's pre-games
loop is kept as a test oracle (``tests/oracles/``), and these tests pin
the games path to it bitwise at equal seeds.
"""

import numpy as np
import pytest

from repro import obs
from repro.causal import (
    AsymmetricShapleyExplainer,
    CausalShapleyExplainer,
    StructuralCausalModel,
    conditional_value_function,
    linear_mechanism,
    sample_topological_permutation,
)
from repro.datavalue import (
    UtilityFunction,
    beta_shapley,
    distributional_shapley,
    gradient_shapley,
    tmc_shapley,
)
from repro.db import (
    FunctionalDependency,
    Relation,
    repair_responsibility,
    shapley_of_tuples,
)
from repro.games import (
    DataValueGame,
    FunctionGame,
    TupleProvenanceGame,
    as_game,
    exact_enumeration,
    game_value_function,
    kernel_wls_estimator,
    permutation_estimator,
    sample_topological_order,
    stratified_estimator,
)
from repro.models import LogisticRegression
from repro.models.model_selection import train_test_split
from repro.obs.metrics import counter, reset_metrics
from repro.robust import GuardConfig, TransientModelError, guard_scope
from repro.shapley import exact_shapley, kernel_shap, permutation_shapley
from tests.oracles.coalition_walk import legacy_permutation_shapley
from tests.oracles.db_scans import legacy_violating_tuples, legacy_violations
from tests.oracles.pre_games import (
    legacy_asymmetric_explain,
    legacy_beta_shapley,
    legacy_causal_explain,
    legacy_distributional_shapley,
    legacy_gradient_shapley,
    legacy_shapley_of_tuples,
    legacy_tmc_shapley,
)


def _quadratic_game(n):
    """A deterministic, asymmetric value function over n players."""
    weights = np.arange(1.0, n + 1.0)

    def v(masks):
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        s = masks @ weights
        return s + 0.1 * s**2

    return v


@pytest.fixture(scope="module")
def tiny_utility_pair():
    """Two independent utilities over the same 12-point valuation task."""
    X, y = _make_valuation_data()
    X_train, X_val, y_train, y_val = train_test_split(
        X, y, test_size=0.4, seed=0
    )

    def build():
        return UtilityFunction(
            lambda: LogisticRegression(alpha=1.0),
            X_train[:12], y_train[:12], X_val, y_val,
        )

    return build


def _make_valuation_data():
    from repro.datasets import make_classification

    data = make_classification(60, n_features=3, n_informative=2,
                               class_sep=2.0, seed=13)
    return data.X, data.y


class TestGameProtocol:
    def test_as_game_wraps_callables(self):
        v = _quadratic_game(4)
        game = as_game(v, 4)
        assert isinstance(game, FunctionGame)
        assert game.n_players == 4
        masks = np.eye(4, dtype=bool)
        assert np.array_equal(game.value(masks), v(masks))

    def test_as_game_requires_n_players_for_callables(self):
        with pytest.raises(ValueError):
            as_game(_quadratic_game(3))

    def test_as_game_rejects_non_games(self):
        with pytest.raises(TypeError):
            as_game(object())

    def test_game_value_function_caches_deterministic_games(self):
        utility = _CountingValue(3)
        v = game_value_function(utility.as_game())
        masks = np.array([[True, False, False]] * 4)
        out = v(masks)
        assert np.array_equal(out, np.full(4, 1.0))
        assert utility.calls == 1  # three duplicates served by the cache
        assert v.cache.hits == 3 and v.cache.misses == 1

    def test_nondeterministic_game_stays_uncached(self):
        utility = _CountingValue(3, deterministic=False)
        v = game_value_function(utility.as_game())
        v(np.array([[True, False, False]] * 4))
        assert utility.calls == 4  # every duplicate draws afresh
        assert v.cache is None

    @pytest.mark.parametrize("deterministic,cache,calls", [
        (True, False, 4),  # the caller opts a deterministic game out
        (False, True, 1),  # the caller asserts determinism
    ])
    def test_explicit_cache_overrides_the_flag(self, deterministic, cache,
                                                calls):
        utility = _CountingValue(3, deterministic=deterministic)
        v = game_value_function(utility.as_game(), cache=cache)
        v(np.array([[True, False, False]] * 4))
        assert utility.calls == calls
        assert (v.cache is not None) == cache

    def test_wrong_length_value_is_not_retried(self):
        from repro.robust import ModelEvaluationError, OutputShapeError

        calls = []

        class Short:
            n_players = 3
            deterministic = False

            def value(self, masks):
                calls.append(masks.shape[0])
                return np.zeros(masks.shape[0] - 1)

        reset_metrics()
        v = game_value_function(Short(), chunk_retries=3)
        with pytest.raises(OutputShapeError, match="Short.value returned 1 "
                           "values for 2 coalitions") as err:
            v(np.array([[True, False, False], [False, True, True]]))
        assert isinstance(err.value, ModelEvaluationError)
        assert calls == [2]
        assert counter("robust.chunk_retries").value == 0


class _CountingValue:
    def __init__(self, n, deterministic=True):
        self.n = n
        self.deterministic = deterministic
        self.calls = 0

    def as_game(self):
        outer = self

        class G:
            n_players = outer.n
            deterministic = outer.deterministic

            def value(self, masks):
                outer.calls += masks.shape[0]
                return np.asarray(masks, dtype=float).sum(axis=1)

        return G()


class TestSamplingParity:
    """games permutation_estimator == the retained legacy walk loop."""

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("n_permutations", [1, 2, 9, 40])
    def test_bitwise(self, antithetic, n_permutations):
        v = _quadratic_game(5)
        new = permutation_shapley(
            v, 5, n_permutations=n_permutations, antithetic=antithetic,
            seed=3, return_diagnostics=True,
        )
        old = legacy_permutation_shapley(
            v, 5, n_permutations=n_permutations, antithetic=antithetic,
            seed=3, return_diagnostics=True,
        )
        assert np.array_equal(new[0], old[0])
        assert np.array_equal(new[1], old[1])
        assert new[2] == old[2]

    def test_exact_matches_linear_game(self):
        # For the linear part of the game Shapley is the weight itself;
        # the quadratic part is symmetric in coalition weight-sum.
        weights = np.arange(1.0, 5.0)
        v = lambda masks: np.atleast_2d(masks) @ weights
        phi = exact_shapley(v, 4)
        assert np.allclose(phi, weights)
        assert np.array_equal(phi, exact_enumeration(v, n_players=4))

    def test_kernel_delegation_is_bitwise(self):
        v = _quadratic_game(6)
        direct = kernel_wls_estimator(v, n_players=6, n_samples=40, seed=2)
        via_shapley = kernel_shap(v, 6, n_samples=40, seed=2)
        assert np.array_equal(direct[0], via_shapley[0])
        assert direct[1] == via_shapley[1]


class TestDataValueParity:
    def test_tmc_bitwise(self, tiny_utility_pair):
        new = tmc_shapley(tiny_utility_pair(), n_permutations=15, seed=4)
        old = legacy_tmc_shapley(tiny_utility_pair(), n_permutations=15, seed=4)
        assert np.array_equal(new.values, old.values)
        assert new.meta["full_score"] == old.meta["full_score"]
        assert (new.meta["mean_truncation_position"]
                == old.meta["mean_truncation_position"])
        assert (new.meta["n_utility_evaluations"]
                == old.meta["n_utility_evaluations"])
        assert new.meta["convergence"]["converged"] is True

    def test_beta_bitwise(self, tiny_utility_pair):
        new = beta_shapley(tiny_utility_pair(), alpha=4.0, beta=1.0,
                           n_permutations=10, seed=6)
        old = legacy_beta_shapley(tiny_utility_pair(), alpha=4.0, beta=1.0,
                                  n_permutations=10, seed=6)
        assert np.array_equal(new.values, old.values)
        assert new.method == old.method

    def test_distributional_bitwise(self, tiny_utility_pair):
        new = distributional_shapley(2, tiny_utility_pair(), n_draws=25, seed=1)
        old = legacy_distributional_shapley(
            2, tiny_utility_pair(), n_draws=25, seed=1
        )
        assert new == old

    def test_distributional_bad_index(self, tiny_utility_pair):
        with pytest.raises(IndexError):
            distributional_shapley(99, tiny_utility_pair(), n_draws=2)

    def test_gradient_bitwise(self):
        X, y = _make_valuation_data()
        X_train, X_val, y_train, y_val = train_test_split(
            X, y, test_size=0.5, seed=2
        )
        kwargs = dict(n_permutations=8, learning_rate=0.1, seed=9)
        new = gradient_shapley(
            lambda: LogisticRegression(alpha=1.0),
            X_train[:10], y_train[:10], X_val, y_val, **kwargs,
        )
        old = legacy_gradient_shapley(
            lambda: LogisticRegression(alpha=1.0),
            X_train[:10], y_train[:10], X_val, y_val, **kwargs,
        )
        assert np.array_equal(new.values, old.values)

    def test_stratified_estimator_rejects_bad_player(self):
        with pytest.raises(IndexError):
            stratified_estimator(_quadratic_game(4), 7, n_players=4)


@pytest.fixture()
def sales():
    return Relation(
        ["region", "amount"],
        [("east", 10.0), ("east", 30.0), ("west", 5.0), ("west", 100.0)],
        name="sales",
    )


def _total(rel):
    return sum(t["amount"] for t in rel.to_dicts())


class TestTupleParity:
    def test_exact_engine_matches_legacy(self, sales):
        new = shapley_of_tuples(sales, _total, method="exact")
        old = legacy_shapley_of_tuples(sales, _total, method="exact")
        assert new == old

    def test_sampling_engine_matches_legacy(self, sales):
        kwargs = dict(method="sampling", n_permutations=30, seed=2)
        new = shapley_of_tuples(sales, _total, **kwargs)
        old = legacy_shapley_of_tuples(sales, _total, **kwargs)
        assert new == old

    @pytest.mark.parametrize("kwargs", [
        dict(method="exact"),
        dict(method="sampling", n_permutations=20, seed=3),
    ])
    def test_repair_engine_matches_legacy(self, kwargs):
        dirty = Relation(
            ["zip", "city", "state"],
            [("1", "a", "x"), ("1", "b", "x"), ("1", "a", "y"),
             ("2", "c", "z"), ("2", "d", "z"), ("3", "e", "w")],
            name="dirty",
        )
        fds = [FunctionalDependency(("zip",), ("city",)),
               FunctionalDependency(("zip",), ("state",))]
        new = repair_responsibility(dirty, fds, **kwargs)
        involved = set()
        for fd in fds:
            involved |= legacy_violating_tuples(fd, dirty)
        old = legacy_shapley_of_tuples(
            dirty,
            lambda sub: float(sum(legacy_violations(fd, sub) for fd in fds)),
            endogenous=sorted(involved), **kwargs,
        )
        assert new == old
        assert sum(new.values()) == pytest.approx(
            sum(legacy_violations(fd, dirty) for fd in fds))

    def test_game_respects_exogenous_context(self, sales):
        game = TupleProvenanceGame(sales, _total, endogenous=[0, 1])
        assert game.n_players == 2
        assert game.player_names == ["t0", "t1"]
        # ∅ still includes the exogenous west tuples.
        assert game.value(np.array([[False, False]]))[0] == 105.0
        assert game.grand_value() == 145.0


@pytest.fixture(scope="module")
def chain_scm():
    scm = StructuralCausalModel()
    scm.add_variable("a", [], lambda p, u: u,
                     noise=lambda rng, n: rng.normal(0, 1, n))
    scm.add_variable("b", ["a"], linear_mechanism({"a": 1.0}),
                     noise=lambda rng, n: rng.normal(0, 0.5, n))
    return scm


def _chain_model(X):
    return X[:, 0] + 2.0 * X[:, 1]


class TestCausalParity:
    def test_asymmetric_bitwise(self, chain_scm):
        x = np.array([1.0, 0.5])
        kwargs = dict(n_permutations=12, n_samples=60, seed=5)
        explainer = AsymmetricShapleyExplainer(
            _chain_model, chain_scm, ["a", "b"], **kwargs
        )
        new = explainer.explain(x)
        old = legacy_asymmetric_explain(explainer, x)
        assert np.array_equal(new.values, old.values)
        assert new.base_value == old.base_value

    def test_asymmetric_custom_value_fn_bitwise(self, chain_scm):
        x = np.array([0.5, -1.0])
        kwargs = dict(n_permutations=6, n_samples=40, seed=8)
        explainer = AsymmetricShapleyExplainer(
            _chain_model, chain_scm, ["a", "b"], **kwargs
        )

        def value_fn():
            return conditional_value_function(
                chain_scm, _chain_model, ["a", "b"], x,
                n_samples=40, seed=8,
            )

        new = explainer.explain(x, value_fn=value_fn())
        old = legacy_asymmetric_explain(explainer, x, value_fn=value_fn())
        assert np.array_equal(new.values, old.values)
        assert new.base_value == old.base_value

    def test_causal_bitwise(self, chain_scm):
        x = np.array([1.0, 1.0])
        kwargs = dict(n_permutations=10, n_samples=50, seed=3)
        explainer = CausalShapleyExplainer(
            _chain_model, chain_scm, ["a", "b"], **kwargs
        )
        new = explainer.explain(x)
        old = legacy_causal_explain(explainer, x)
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.meta["direct"], old.meta["direct"])
        assert np.array_equal(new.meta["indirect"], old.meta["indirect"])
        assert new.base_value == old.base_value
        assert np.allclose(
            new.meta["direct"] + new.meta["indirect"], new.values
        )

    def test_topological_sampler_matches_legacy_and_respects_dag(
        self, chain_scm
    ):
        legacy = sample_topological_permutation(
            chain_scm, ["a", "b"], np.random.default_rng(0)
        )
        generic = sample_topological_order(
            chain_scm.parents, ["a", "b"], np.random.default_rng(0)
        )
        assert np.array_equal(legacy, generic)
        for seed in range(10):
            order = sample_topological_order(
                chain_scm.parents, ["a", "b"], np.random.default_rng(seed)
            )
            # a (index 0) causes b (index 1): a must come first.
            assert list(order) == [0, 1]


class TestSharedTelemetry:
    """The same counters and spans fire for every game family."""

    def test_datavalue_run_emits_cache_counters(self, tiny_utility_pair):
        reset_metrics()
        utility = tiny_utility_pair()
        tmc_shapley(utility, n_permutations=6, seed=0)
        assert counter("datavalue.cache.misses").value > 0
        assert counter("coalition.cache.misses").value > 0
        # A second estimate over the same utility starts with a fresh
        # coalition cache, so repeated prefixes fall through to the
        # utility memo — the cross-estimator dedup layer.
        tmc_shapley(utility, n_permutations=6, seed=0)
        assert counter("datavalue.cache.hits").value > 0
        assert utility.cache_hits > 0 and utility.cache_misses > 0

    def test_db_run_emits_coalition_cache_counters(self, sales):
        reset_metrics()
        tracer = obs.get_tracer()
        mark = tracer.mark()
        shapley_of_tuples(sales, _total, method="sampling",
                          n_permutations=10, seed=0)
        assert counter("coalition.cache.hits").value > 0
        assert counter("coalition.cache.misses").value > 0
        spans = [s for s in tracer.spans_since(mark)
                 if s.name == "coalition_eval"]
        assert spans and spans[0].attrs["game"] == "TupleProvenanceGame"

    def test_causal_run_emits_spans_and_cache_hits(self, chain_scm):
        reset_metrics()
        tracer = obs.get_tracer()
        mark = tracer.mark()
        AsymmetricShapleyExplainer(
            _chain_model, chain_scm, ["a", "b"],
            n_permutations=6, n_samples=30, seed=0,
        ).explain(np.array([1.0, -0.5]))
        # Walks repeat ∅ and prefixes at fixed positions: position-keyed
        # cache hits replace SCM re-sampling.
        assert counter("coalition.cache.hits").value > 0
        spans = [s for s in tracer.spans_since(mark)
                 if s.name == "coalition_eval"]
        assert spans and spans[0].attrs["game"] == "TopologicalGame"


class TestGracefulDegradationAcrossGames:
    """PR 3's budget/retry semantics now apply to non-model games too."""

    def test_flaky_datavalue_game_degrades_to_partial(
        self, tiny_utility_pair, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKOFF", "0")
        reset_metrics()
        utility = tiny_utility_pair()
        state = {"calls": 0}

        class FlakyUtility:
            n_points = utility.n_points
            empty_score = utility.empty_score

            def full_score(self):
                return utility.full_score()

            def __call__(self, indices):
                state["calls"] += 1
                if state["calls"] % 7 == 3:
                    raise TransientModelError("utility service hiccup")
                return utility(indices)

        game = DataValueGame(FlakyUtility())
        with guard_scope(GuardConfig(query_budget=60)):
            est = permutation_estimator(
                game, n_permutations=50, antithetic=False, seed=0,
                truncation_tolerance=0.01,
                truncation_target=utility.full_score(),
                empty_value=utility.empty_score,
                aggregate="sum_counts",
            )
        assert est.diagnostics["converged"] is False
        assert est.diagnostics["budget_error"] is not None
        assert 0 < est.diagnostics["n_walks_completed"] < 50
        assert np.all(np.isfinite(est.values))
        # Transient failures were retried (not fatal), and the budget
        # exhaustion was counted.
        assert counter("robust.retries").value > 0
        assert counter("robust.budget_exhausted").value > 0

    def test_budget_exhaustion_before_any_walk_raises(self, tiny_utility_pair):
        from repro.robust import BudgetExceededError

        game = DataValueGame(tiny_utility_pair())
        with guard_scope(GuardConfig(query_budget=1)):
            with pytest.raises(BudgetExceededError):
                permutation_estimator(
                    game, n_permutations=5, antithetic=False, seed=0,
                    empty_value=game.empty_value, aggregate="sum_counts",
                )


class TestResumableEstimators:
    """Anytime estimation: resumed walk streams re-join bitwise."""

    @pytest.mark.parametrize("aggregate", ["mean_walks", "sum_counts"])
    @pytest.mark.parametrize("antithetic", [True, False])
    def test_partial_plus_resume_is_bitwise(self, aggregate, antithetic):
        v = _quadratic_game(5)
        kwargs = dict(n_players=5, antithetic=antithetic, seed=3,
                      aggregate=aggregate)
        full = permutation_estimator(v, n_permutations=20, **kwargs)
        partial = permutation_estimator(v, n_permutations=8, **kwargs)
        resumed = permutation_estimator(
            v, n_permutations=20, resume_state=partial.state, **kwargs
        )
        assert np.array_equal(resumed.values, full.values)
        if full.std_err is not None:
            assert np.array_equal(resumed.std_err, full.std_err)
        assert resumed.state.n_walks == full.state.n_walks
        assert resumed.diagnostics["n_walks_completed"] == \
            full.diagnostics["n_walks_completed"]

    def test_state_roundtrips_through_json_dict(self):
        v = _quadratic_game(4)
        kwargs = dict(n_players=4, antithetic=True, seed=11)
        full = permutation_estimator(v, n_permutations=12, **kwargs)
        partial = permutation_estimator(v, n_permutations=6, **kwargs)
        import json

        payload = json.loads(json.dumps(partial.state.to_dict()))
        resumed = permutation_estimator(
            v, n_permutations=12, resume_state=payload, **kwargs
        )
        assert np.array_equal(resumed.values, full.values)

    def test_mid_antithetic_pair_resume(self):
        from repro.games import EstimatorState

        v = _quadratic_game(5)
        kwargs = dict(n_players=5, antithetic=True, seed=9)
        full = permutation_estimator(v, n_permutations=10, **kwargs)
        # A state cut mid-pair: 5 completed walks = 2.5 antithetic
        # batches, so the resume must re-enter at the reverse walk of
        # the third permutation.
        state = full.state
        cut = EstimatorState(
            n_walks=5,
            aggregate="mean_walks",
            contributions=[np.array(c) for c in state.contributions[:5]],
            params=dict(state.params),
        )
        resumed = permutation_estimator(
            v, n_permutations=10, resume_state=cut, **kwargs
        )
        assert np.array_equal(resumed.values, full.values)

    def test_budget_exhausted_partial_resumes_to_full(self, tiny_utility_pair):
        game = DataValueGame(tiny_utility_pair())
        kwargs = dict(n_permutations=6, antithetic=False, seed=2,
                      empty_value=game.empty_value, aggregate="sum_counts")
        full = permutation_estimator(game, **kwargs)

        flaky_game = DataValueGame(tiny_utility_pair())
        with guard_scope(GuardConfig(query_budget=30)):
            partial = permutation_estimator(flaky_game, **kwargs)
        assert partial.diagnostics["converged"] is False
        assert 0 < partial.state.n_walks < 6

        resume_game = DataValueGame(tiny_utility_pair())
        resumed = permutation_estimator(
            resume_game, resume_state=partial.state.to_dict(), **kwargs
        )
        assert resumed.diagnostics["converged"] is True
        assert np.array_equal(resumed.values, full.values)

    def test_param_mismatch_rejected(self):
        v = _quadratic_game(4)
        partial = permutation_estimator(v, n_players=4, n_permutations=4,
                                        antithetic=True, seed=1)
        with pytest.raises(ValueError, match="resume_state"):
            permutation_estimator(v, n_players=4, n_permutations=8,
                                  antithetic=True, seed=2,
                                  resume_state=partial.state)

    def test_explicit_rng_rejected_with_resume(self):
        v = _quadratic_game(4)
        partial = permutation_estimator(v, n_players=4, n_permutations=4,
                                        seed=1)
        with pytest.raises(ValueError, match="rng"):
            permutation_estimator(
                v, n_players=4, n_permutations=8, seed=1,
                rng=np.random.default_rng(1), resume_state=partial.state,
            )

    def test_fully_complete_state_is_a_no_op_resume(self):
        v = _quadratic_game(4)
        kwargs = dict(n_players=4, antithetic=True, seed=6)
        full = permutation_estimator(v, n_permutations=8, **kwargs)
        resumed = permutation_estimator(
            v, n_permutations=8, resume_state=full.state, **kwargs
        )
        assert np.array_equal(resumed.values, full.values)
        assert resumed.state.n_walks == full.state.n_walks
