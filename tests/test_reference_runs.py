"""Pinned learning curves of two tiny hardened runs, one per loss.

The reference values were produced by the implementation before the dense
layer stacks were shared between encoder, generator and classifier. A
refactor that claims bitwise-identical training must reproduce them. Every
curve value is compared with relative tolerance 1e-9, the step and
skipped-batch counts exactly.
"""

import csv
import math

import pytest

from hardmetric.data import synth_gaussian_dataset
from hardmetric.training import CURVE_HEADER, TrainConfig, run_training

DATA = dict(num_classes=8, per_class=10, input_dim=8, center_scale=10.0, noise_sigma=3.0, seed=11)
MODEL = dict(batch_size=10, epochs=2, embed_dim=4, hidden_dims=(16,), learning_rate=1e-3, alpha=0.5, seed=3, split_seed=3)

# (config overrides, steps, skipped batches, curves.csv rows)
REFERENCE = {
    "triplet": (
        dict(loss_kind="triplet", beta=80.0),
        8,
        0,
        [
            (0, 0, 0.10810117953035618, 0.333490021812829, 248.09455792258726, 247.29835134484995, 1.5924131554746217, 0.7243665734129993, 1.0),
            (1, 0, 2.2349164996055677, 1.5185442195401677, 156.34845005024764, 155.4819610311497, 1.7329780381958926, 0.5994890307506588, 1.0),
            (2, 0, 1.268045751381673, 0.8271847649618602, 241.81699472724577, 240.968065148144, 1.697859158203509, 0.7183282140755741, 1.0),
            (3, 0, 2.5009323209860526, 1.9569197931197249, 245.02012080906184, 244.32630277729928, 1.3876360635251368, 0.7214416350981125, 1.0),
            (4, 1, 0.877834890189381, 0.9589363561291773, 179.99303145743028, 179.2257695835939, 1.5345237476727538, 0.6411693557697712, 0.7209212590956052),
            (5, 1, 0.7386317697900169, 0.8227260623452134, 289.89728225205863, 289.2166975298665, 1.3611694443842393, 0.7588434252643673, 0.7209212590956052),
            (6, 1, 0.5792911838058475, 0.9486301718882331, 206.7206614555625, 205.9955981787997, 1.4501265535256138, 0.6790940382976398, 0.7209212590956052),
            (7, 1, 0.2092889975599127, 0.3536709311410793, 145.26466337375976, 144.41085698535878, 1.707612776801956, 0.5765351728394754, 0.7209212590956052),
        ],
    ),
    "npair": (
        dict(loss_kind="npair", npair_n=3, beta=150.0),
        7,
        1,
        [
            (0, 0, 0.3535631056389275, 0.6571151566207265, 240.01976371923223, 239.0367678701259, 1.9659916982126147, 0.5352889758046836, 1.0),
            (1, 0, 0.4174547669329955, 0.7210367361769956, 135.71974293756202, 135.01040718111472, 1.41867151289458, 0.3311384491058334, 1.0),
            (2, 0, 2.0997723054061184, 1.2581571026832539, 208.60656123455806, 207.77446123608607, 1.6641999969439956, 0.48721149874916164, 1.0),
            (3, 0, 2.164778386531765, 2.3319580832654503, 242.16295409199324, 241.52486174080818, 1.2761847023701207, 0.5382578184224868, 1.0),
            (4, 1, 1.1555787786903104, 0.727808935360355, 232.18254710066861, 230.93098818754302, 2.503117826251207, 0.5241153995589248, 0.6722166370656942),
            (5, 1, 2.2102056650226847, 1.1079782037784573, 204.97115854337764, 204.22207369390094, 1.498169698953393, 0.48103739121476125, 0.6722166370656942),
            (6, 1, 1.1085461650091368, 1.0571340604340882, 220.26321576616616, 219.4219893247289, 1.6824528828744834, 0.50610890513962, 0.6722166370656942),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_hardened_run_reproduces_its_pinned_curves(tmp_path, name):
    overrides, steps, skipped, expected = REFERENCE[name]
    result = run_training(synth_gaussian_dataset(**DATA), TrainConfig(**MODEL, **overrides), out_dir=tmp_path)
    assert result.state.step == steps
    assert result.state.skipped_batches == skipped
    with open(tmp_path / "curves.csv", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert ",".join(header) == CURVE_HEADER
    assert len(rows) == len(expected)
    for row, reference in zip(rows, expected):
        for column, text, value in zip(header, row, reference):
            assert math.isclose(float(text), value, rel_tol=1e-9, abs_tol=0.0), (name, row[0], column)
