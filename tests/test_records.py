import json

import numpy as np
import pytest

from pinninglab.errors import ConfigError
from pinninglab.numerics import MeanAccumulator, derive_rng, ks_distance
from pinninglab.records import ExperimentConfig, RunRecord, estimate, write_csv


def test_config_roundtrip(tmp_path):
    raw = {"experiment": "gw-check", "seed": 4, "mc_n": 5}
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.params == {"mc_n": 5}
    assert cfg.to_dict() == raw
    assert len(cfg.sha256) == 64
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "x"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seed": 1})


def test_record_serialization(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "e", "seed": 1})
    rec = RunRecord(experiment="e", seed=1, config=cfg.to_dict(),
                    config_sha256=cfg.sha256)
    rec.estimates["x"] = estimate(1.5, 0.1)
    rec.estimates["y"] = estimate(2.0)
    rec.write(tmp_path / "r.json")
    back = json.loads((tmp_path / "r.json").read_text())
    assert back["estimates"]["x"]["std_error"] == 0.1
    assert back["estimates"]["y"]["exact"] is True


def test_csv_full_precision(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [(1, 0.1), (2, 1e-17), (3, np.float64(0.3))], {"seed": 3})
    lines = p.read_text().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[2] == "1,0.1"
    assert lines[3] == "2,1e-17"
    assert lines[4] == "3,0.3"


def test_derive_rng_stable_and_keyed():
    a = derive_rng(7, "tag", 1).standard_normal(3)
    b = derive_rng(7, "tag", 1).standard_normal(3)
    c = derive_rng(7, "tag", 2).standard_normal(3)
    assert (a == b).all()
    assert not (a == c).all()


def test_mean_accumulator_merges():
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    one = MeanAccumulator()
    one.add(x)
    two = MeanAccumulator()
    two.add(x[:300])
    two.add(x[300:])
    assert one.mean == pytest.approx(two.mean)
    assert one.std_error == pytest.approx(two.std_error)
    assert one.mean == pytest.approx(float(x.mean()))
    assert one.std_error == pytest.approx(float(x.std(ddof=1) / np.sqrt(x.size)))


def test_mean_accumulator_large_offset():
    # at this offset a sum-of-squares accumulator loses the variance to cancellation
    import numpy as np

    x = np.random.default_rng(1).standard_normal(10_000) + 1e8
    acc = MeanAccumulator()
    for chunk in np.split(x, 10):
        acc.add(chunk)
    want = float(x.std(ddof=1) / np.sqrt(x.size))
    assert acc.std_error == pytest.approx(want, rel=0.01)
    assert acc.mean == pytest.approx(float(x.mean()), abs=1e-6)


def test_mean_accumulator_rows_equal_one_accumulator_per_row():
    # an (R, n) chunk folds each row as a 1-d accumulator fed that row's
    # chunks would, bit for bit, across unequal chunks at a large offset
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 1000)) * rng.uniform(0.1, 10.0, (7, 1)) + 1e4
    rows, singles = MeanAccumulator(), [MeanAccumulator() for _ in x]
    for lo, hi in ((0, 1), (1, 8), (8, 300), (300, 1000)):
        rows.add(x[:, lo:hi])
        for acc, row in zip(singles, x):
            acc.add(row[lo:hi])
    assert rows.count == 1000
    for name in ("mean", "m2", "std_error"):
        values = [getattr(acc, name) for acc in singles]
        assert all(type(v) is float for v in values)
        assert np.array_equal(getattr(rows, name), values)
    one = MeanAccumulator()
    one.add(x[:, :1])
    assert one.std_error.tolist() == [float("inf")] * 7


def test_ks_distance_uniform():
    import numpy as np

    x = np.linspace(0.005, 0.995, 100)
    assert ks_distance(x, lambda t: t) <= 0.01 + 1e-9
