import json
import warnings

import numpy as np
import pytest

from pinninglab.errors import ConfigError
from pinninglab.numerics import derive_rng, ks_distance, logsumexp_1d, mean_and_error
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


def test_mean_and_error_large_offset():
    # at this offset a sum-of-squares estimator loses the variance to cancellation
    x = np.random.default_rng(1).standard_normal(10_000) + 1e8
    mean, se = mean_and_error(x)
    want = float(x.std(ddof=1) / np.sqrt(x.size))
    assert se == pytest.approx(want, rel=0.01)
    assert mean == pytest.approx(float(x.mean()), abs=1e-6)


def test_mean_and_error_rows_equal_one_call_per_row():
    # an (R, n) array gives each row the bits of a 1-d call on that row,
    # at a large offset; below two samples the error is inf
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 1000)) * rng.uniform(0.1, 10.0, (7, 1)) + 1e4
    means, errors = mean_and_error(x)
    singles = [mean_and_error(row) for row in x]
    assert all(type(m) is float and type(e) is float for m, e in singles)
    assert np.array_equal(means, [m for m, _ in singles])
    assert np.array_equal(errors, [e for _, e in singles])
    assert mean_and_error(x[:, :1])[1].tolist() == [float("inf")] * 7
    assert mean_and_error(x[0, :1]) == (x[0, 0], float("inf"))


def test_logsumexp_1d_contract():
    # a 1-d row gives a float with the bits of the same row in a 2-d call;
    # an infinite maximum gives itself, -inf entries among finite ones drop
    # out, and finite rows agree with numpy's logaddexp fold; no warning
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 30.0, (8, 40))
    x[1, ::3] = -np.inf
    x[2] = -np.inf
    x[3, 7] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = logsumexp_1d(x)
        singles = [logsumexp_1d(row) for row in x]
    assert rows.shape == (8,)
    for one, want in zip(singles, rows):
        assert type(one) is float and np.float64(one).tobytes() == want.tobytes()
    assert rows[2] == -np.inf and rows[3] == np.inf
    finite = [0, 1, 4, 5, 6, 7]
    want = np.logaddexp.reduce(x[finite], axis=1)
    np.testing.assert_allclose(rows[finite], want, rtol=1e-15, atol=0.0)


def test_ks_distance_uniform():
    import numpy as np

    x = np.linspace(0.005, 0.995, 100)
    assert ks_distance(x, lambda t: t) <= 0.01 + 1e-9
