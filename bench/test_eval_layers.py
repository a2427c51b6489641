"""Layer benchmarks of fusion plus EER, the work `eval` does for one score
set: `fusion_eval.train_fusion`, `fusion_eval.fuse`, and the three
`fusion_eval.eer` calls of the LG, SIFT and fused columns. The trials are
those of the default corpus (20 subjects x 3 sessions: 60 genuine and 380
impostor, 440 in all); the two score columns are drawn at random around
LG-like (genuine-low) and SIFT-like (genuine-high) values.

    PYTHONPATH=src python -m pytest bench/test_eval_layers.py --benchmark-enable --benchmark-only

The default test run collects it with `--benchmark-disable`: each
benchmarked call runs once, untimed.
"""

import numpy as np

from irissr import fusion_eval, iriscode, siftmatch


def _score_set():
    records = [(f"s{s:03d}", f"s{s:03d}-{j}") for s in range(20) for j in range(3)]
    gen_pairs, imp_pairs = fusion_eval.make_trials(records)
    rng = np.random.default_rng(0)
    n_gen, n_imp = len(gen_pairs), len(imp_pairs)
    lg = np.concatenate([rng.normal(0.33, 0.05, n_gen), rng.normal(0.47, 0.015, n_imp)])
    sift = np.concatenate([rng.normal(0.30, 0.15, n_gen), rng.normal(0.12, 0.08, n_imp)])
    genuine = np.arange(n_gen + n_imp) < n_gen
    return np.column_stack([lg, sift]), genuine


SCORES, GENUINE = _score_set()
POLARITIES = (iriscode.SCORE_POLARITY, siftmatch.SCORE_POLARITY, "genuine_high")


def test_train_fusion(benchmark):
    weights = benchmark(fusion_eval.train_fusion, SCORES[GENUINE], SCORES[~GENUINE])
    assert weights.shape == (3,)


def test_fuse(benchmark):
    weights = fusion_eval.train_fusion(SCORES[GENUINE], SCORES[~GENUINE])
    fused = benchmark(fusion_eval.fuse, weights, SCORES)
    assert fused.shape == (440,)


def test_eer_three_columns(benchmark):
    weights = fusion_eval.train_fusion(SCORES[GENUINE], SCORES[~GENUINE])
    columns = [SCORES[:, 0], SCORES[:, 1], fusion_eval.fuse(weights, SCORES)]

    def three_eers():
        return [fusion_eval.eer(col[GENUINE], col[~GENUINE], polarity)[0]
                for col, polarity in zip(columns, POLARITIES)]

    rates = benchmark(three_eers)
    assert all(0.0 <= rate <= 0.5 for rate in rates)
