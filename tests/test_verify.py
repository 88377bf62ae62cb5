import numpy as np

from hardmetric.nn import gradcheck
from hardmetric.verify import embedder_metric_fragment, generator_objective_fragment, run_gradcheck_suite


class TestFragments:
    def test_triplet_fragment_passes_gradcheck(self):
        rng = np.random.default_rng(0)
        report = gradcheck(*embedder_metric_fragment("triplet", rng))
        assert report.passed, report.summary()

    def test_npair_fragment_passes_gradcheck(self):
        rng = np.random.default_rng(1)
        report = gradcheck(*embedder_metric_fragment("npair", rng))
        assert report.passed, report.summary()

    def test_generator_fragment_passes_gradcheck(self):
        rng = np.random.default_rng(2)
        report = gradcheck(*generator_objective_fragment(rng))
        assert report.passed, report.summary()


class TestSuite:
    def test_small_suite_passes(self):
        results = run_gradcheck_suite(seed=3, instances=3)
        assert len(results) == 3
        for suite in results:
            assert suite.passed, f"{suite.name}: {suite.max_deviation}"
            assert len(suite.reports) == 3
