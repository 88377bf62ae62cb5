import numpy as np

from hardmetric.nn import gradcheck
from hardmetric.verify import embedder_metric_fragment, generator_objective_fragment, run_gradcheck_suite


class TestFragments:
    def test_triplet_fragment_passes_gradcheck(self):
        rng = np.random.default_rng(0)
        report = gradcheck(*embedder_metric_fragment("triplet", rng))
        assert report.passed, report.deviations

    def test_npair_fragment_passes_gradcheck(self):
        rng = np.random.default_rng(1)
        report = gradcheck(*embedder_metric_fragment("npair", rng))
        assert report.passed, report.deviations

    def test_generator_fragment_passes_gradcheck(self):
        rng = np.random.default_rng(2)
        report = gradcheck(*generator_objective_fragment(rng))
        assert report.passed, report.deviations


class TestSuite:
    def test_small_suite_passes(self):
        results = run_gradcheck_suite(seed=3, instances=3)
        assert list(results) == ["embedder + triplet loss", "embedder + npair loss", "generator objective"]
        for name, report in results.items():
            assert report.passed, f"{name}: {report.max_deviation}"
        # each report holds every parameter's worst deviation over the three draws, drawn in suite order
        rng = np.random.default_rng(3)
        builds = [
            lambda: embedder_metric_fragment("triplet", rng),
            lambda: embedder_metric_fragment("npair", rng),
            lambda: generator_objective_fragment(rng),
        ]
        for report, build in zip(results.values(), builds):
            draws = [gradcheck(*build()).deviations for _ in range(3)]
            assert report.deviations == {param: max(d[param] for d in draws) for param in draws[0]}
