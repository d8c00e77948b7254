import tracemalloc

import numpy as np
import pytest

from helpers import edges, prod_vstack_values, random_graph
from pfa.synth import DagSpec, SynthSpec, generate, random_dag


class TestScenarios:
    def test_example1_shape(self):
        ds = generate(SynthSpec("example1", 5000, seed=42))
        assert ds.n_rows - ds.n_outputs == 5
        assert ds.n_outputs == 0
        assert ds.n_points == 5000

    def test_example1_defining_equations(self):
        ds = generate(SynthSpec("example1", 500, seed=1))
        x1, x2, x3, x4, x5 = ds.values
        assert np.array_equal(x4, 2.0 * x1 * x2 * x3)
        assert np.array_equal(x5, x1 * x2)

    def test_example2_binary_output(self):
        ds = generate(SynthSpec("example2", 1000, seed=0))
        assert ds.n_outputs == 1
        assert ds.n_rows - ds.n_outputs == 3
        y, x1, x2, x3 = ds.values
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert np.array_equal(x3, x1 * x2)
        assert np.array_equal(y, (x1 >= np.median(x1)).astype(float))

    def test_example3_measured_rows(self):
        ds = generate(SynthSpec("example3", 100, seed=0))
        assert ds.n_rows == 7
        assert ds.n_outputs == 0

    def test_example4_threshold(self):
        ds = generate(SynthSpec("example4", 2000, seed=9))
        y, x1, x2 = ds.values
        assert np.array_equal(y, (x1 + x2 * 10.0**-0.5 >= 4.0).astype(float))
        assert x1.min() >= 0.0 and x1.max() <= 5.0

    def test_determinism(self):
        spec = SynthSpec("example1", 300, seed=7)
        assert generate(spec) == generate(spec)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SynthSpec("example9", 10, seed=0)

    @pytest.mark.parametrize(
        "n_points, seed, message",
        [
            (0, 0, "n_points must be an integer >= 1, got 0"),
            (2.5, 0, "n_points must be an integer >= 1, got 2.5"),
            (10, -1, "seed must be an integer >= 0, got -1"),
            (10, 1.5, "seed must be an integer >= 0, got 1.5"),
            (True, 0, "n_points must be an integer >= 1, got True"),
            (10, True, "seed must be an integer >= 0, got True"),
        ],
    )
    def test_rejects_a_bad_size_or_seed(self, n_points, seed, message):
        with pytest.raises(ValueError, match=message):
            SynthSpec("example1", n_points, seed=seed)


class TestCustomDag:
    def test_products_match_parents(self):
        dag = DagSpec(n_base=3, derived=((0, 1), (0, 1, 2)))
        ds = generate(SynthSpec("custom", 200, seed=4, dag=dag))
        assert ds.n_rows == 5
        bases = ds.values[:3]
        assert np.array_equal(ds.values[3], bases[0] * bases[1])
        assert np.array_equal(ds.values[4], bases[0] * bases[1] * bases[2])

    @pytest.mark.parametrize(
        "dag",
        [
            random_dag(10, 30, seed=1),
            random_dag(12, 40, seed=5, max_parents=8),
            random_dag(6, 20, seed=2, max_parents=6),
            random_dag(4, 0, seed=0),
            DagSpec(3, ((2,), (0, 1), (1,))),
            DagSpec(3, ((1, 1), (0, 2, 0, 2), (2, 2, 2), (0,))),
        ],
        ids=[
            "three_parents", "eight_parents", "max_parents_is_n_base", "no_derived_row",
            "single_parent_rows", "repeated_parents",
        ],
    )
    @pytest.mark.parametrize("n_points, seed", [(1, 0), (257, 3), (5000, 11)])
    def test_same_bytes_as_the_prod_vstack_oracle(self, dag, n_points, seed):
        spec = SynthSpec("custom", n_points, seed=seed, dag=dag)
        values = generate(spec).values
        expected = prod_vstack_values(spec)
        assert values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()

    def test_holds_one_matrix(self):
        # the shape of the paper's 2,154-feature case study: 86 MB of floats
        spec = SynthSpec("custom", 5000, seed=0, dag=random_dag(154, 2000, seed=0))
        tracemalloc.start()
        try:
            ds = generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * ds.values.nbytes

    def test_custom_requires_dag(self):
        with pytest.raises(ValueError, match="DagSpec"):
            SynthSpec("custom", 10, seed=0)

    def test_random_dag_draws_are_pinned(self):
        # the argument checks come before any draw, so valid inputs keep these
        assert random_dag(10, 5, seed=3).derived == (
            (8, 9), (5, 7), (0, 9), (3, 4, 8), (7, 8)
        )
        assert random_dag(2, 4, seed=0, max_parents=2).derived == ((0, 1),) * 4

    def test_random_dag_rejects_more_parents_than_bases(self):
        with pytest.raises(ValueError, match="max_parents must be <= n_base=2, got 3"):
            random_dag(2, 5, seed=0)

    @pytest.mark.parametrize("max_parents", [1, 2.5])
    def test_random_dag_rejects_a_bad_max_parents(self, max_parents):
        with pytest.raises(ValueError, match="max_parents must be an integer >= 2"):
            random_dag(5, 3, seed=0, max_parents=max_parents)

    @pytest.mark.parametrize(
        "n_base, n_derived, message",
        [
            (5, -3, "n_derived must be an integer >= 0, got -3"),
            (4, True, "n_derived must be an integer >= 0, got True"),
            (2.5, 3, "n_base must be an integer >= 1, got 2.5"),
            (0, 0, "n_base must be an integer >= 1, got 0"),
        ],
    )
    def test_random_dag_rejects_bad_counts(self, n_base, n_derived, message):
        with pytest.raises(ValueError, match=message):
            random_dag(n_base, n_derived, seed=0)

    @pytest.mark.parametrize(
        "n_base, derived, message",
        [
            (2.5, ((0,),), "n_base must be an integer >= 1"),
            (-1, (), "n_base must be an integer >= 1"),
            (True, (), "n_base must be an integer >= 1"),
            # parents are checked as integers before their range
            (3, ((0.5, 1),), "parent index must be an integer >= 0, got 0.5"),
            (3, ((True, 2),), "parent index must be an integer >= 0, got True"),
        ],
        ids=["2.5-derived0", "-1-derived1", "True-derived2", "half-parent", "bool-parent"],
    )
    def test_dag_spec_rejects_a_bad_n_base(self, n_base, derived, message):
        with pytest.raises(ValueError, match=message):
            DagSpec(n_base, derived)

    def test_random_dag_without_derived_rows(self):
        assert random_dag(3, 0, seed=0) == DagSpec(3, ())

    def test_random_dag_is_deterministic(self):
        assert random_dag(10, 5, seed=3) == random_dag(10, 5, seed=3)
        for parents in random_dag(10, 20, seed=1).derived:
            assert 2 <= len(parents) <= 3
            assert len(set(parents)) == len(parents)


class TestRandomGraph:
    def test_full_probability_is_complete(self):
        g = random_graph(5, 1.0, seed=0)
        assert len(edges(g)) == 10

    def test_zero_probability_is_empty(self):
        assert edges(random_graph(5, 0.0, seed=0)) == []

    def test_seed_determinism(self):
        a = random_graph(10, 0.4, seed=5)
        b = random_graph(10, 0.4, seed=5)
        assert edges(a) == edges(b)

    def test_seed_sweep_gives_variety(self):
        edge_counts = {len(edges(random_graph(10, 0.4, seed=s))) for s in range(20)}
        assert len(edge_counts) > 3
