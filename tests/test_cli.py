import contextlib
import functools
import inspect
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinninglab import acceptance as acc
from pinninglab import cli, experiments
from pinninglab.records import ExperimentConfig, RunRecord, estimate
from pinninglab.experiments import run as run_experiment


def write_config(tmp_path, name, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": name, **kw}))
    return str(path)


def test_run_writes_record_and_csv(tmp_path):
    cfg = write_config(tmp_path, "overlap-identity", seed=5, n_max_gen=8, brute_n=3)
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rec = json.loads((out / "overlap-identity.record.json").read_text())
    assert rec["flags"]["identity_ok"] is True
    assert rec["version"] == "0.1.0"
    csv = (out / "overlap-identity.values.csv").read_text().splitlines()
    assert csv[0].startswith("# version=")
    assert csv[1] == "# seed=5"
    assert csv[2].startswith("# config_sha256=")
    assert csv[3] == "n,overlap_sum,abs_error"


def test_run_unknown_experiment(tmp_path):
    cfg = write_config(tmp_path, "no-such-thing", seed=1)
    assert cli.main(["run", "--config", cfg]) == 2


def test_run_missing_seed(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "gw-check"}))
    assert cli.main(["run", "--config", str(path)]) == 2


def test_run_non_integer_seed(tmp_path):
    cfg = write_config(tmp_path, "gw-check", seed="abc")
    assert cli.main(["run", "--config", cfg]) == 2


def test_run_config_not_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(["gw-check", 1]))
    assert cli.main(["run", "--config", str(path)]) == 2


def test_run_config_not_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "gw-check", "seed": 1')
    assert cli.main(["run", "--config", str(path)]) == 2


def test_run_config_missing_file(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_run_bad_window(tmp_path):
    cfg = write_config(tmp_path, "annealed-scan", seed=1, B_list=[2.5])
    assert cli.main(["run", "--config", cfg]) == 2


@pytest.mark.parametrize("name, bad", [
    ("gw-check", {"n_exact": "abc"}),             # a string for an int
    ("overlap-identity", {"n_max_genn": 3}),      # a misspelled key
    ("hier-free-energy", {"n": 4.7}),             # a non-integral int
    ("hier-free-energy", {"n": True}),            # a bool for an int
    ("quenched-scan", {"h_list": [0.1, "x"]}),    # a string in a float list
    ("hier-free-energy", {"h_grid": 0.1}),        # a number for a list
    ("gw-check", {"mc_samples": 0}),              # no frequency from no samples
    ("gw-check", {"mc_samples": -5}),
    ("gw-check", {"mc_n": 1}),                    # no leaf 3 below depth 2
    ("gw-check", {"mc_n": 0}),
    ("gw-check", {"n_exact": 5}),                 # no outcome enumeration past depth 4
    ("renewal-green", {"N": 100}),                # the default checkpoint 1000 exceeds N
    ("renewal-green", {"N": 0}),                  # no sites to sum over
    ("renewal-green", {"checkpoints": []}),       # no checkpoint to report at N
    ("lemma51-scan", {"h_list": []}),             # no smallest h
    ("hier-free-energy", {"n": -1}),              # no negative generation
    # values outside the declared windows, the one just past each edge among
    # them; each comment says what the config did before windows were declared
    ("annealed-scan", {"h_min": 0}),              # math domain error in log10, exit 1
    ("annealed-scan", {"h_max": 0}),              # math domain error in log10, exit 1
    ("annealed-scan", {"points": 1}),             # IndexError in np.gradient, exit 1
    ("annealed-scan", {"B_list": [1.0]}),         # math domain error, exit 1
    ("clt-check", {"L_w": 2}),                    # exit 2, but only after the exact sums
    ("clt-check", {"L_w": -1}),                   # ZeroDivisionError in sample_path, exit 1
    ("clt-check", {"L_exact": 19}),               # a hand-written check
    ("clt-check", {"w_samples": 0}),              # a hand-written check: no standard error
    ("clt-check", {"w_samples": 1}),              # below 2 samples
    ("clt-check", {"L_exact": 5}),                # a hand-written check: no log ratio
    ("clt-check", {"L_exact": 15}),               # below L_exact // 10 = 2
    ("decomposition-check", {"k_max": 1}),        # ValueError: low >= high, exit 1
    ("decomposition-check", {"max_blocks": 0}),   # ValueError: low >= high, exit 1
    ("decomposition-check", {"trials": 0}),       # exit 0, identity_ok from no trial
    ("gw-check", {"B": 1}),                       # exit 0
    ("gw-check", {"B": 2}),                       # exit 0
    ("gw-check", {"B": 0}),                       # ZeroDivisionError, exit 1
    ("gw-check", {"n_exact": 0}),                 # exit 0, identities_exact from no identity
    ("hier-certify", {"beta": 0}),                # ZeroDivisionError, exit 1
    ("hier-certify", {"epsilon_override": 0}),    # ZeroDivisionError, exit 1
    ("hier-certify", {"samples": 1}),             # exit 0, tilted mean with SE inf
    ("hier-free-energy", {"h_grid": []}),         # exit 0, jensen_ok from no grid point
    ("lemma51-scan", {"gamma": 2 / 3}),           # exit 0 on an infinite zeta sum
    ("lemma51-scan", {"gamma": 1}),               # exit 0, no in-block coupling
    ("lemma51-scan", {"cond_horizon": 0}),        # IndexError, exit 1
    ("overlap-identity", {"n_max_gen": 0}),       # exit 0, identity_ok from no generation
    ("overlap-identity", {"brute_n": 0}),         # exit 0, brute_ok from no generation
    ("quenched-scan", {"samples": 1}),            # exit 0, free energies with SE inf
    ("quenched-scan", {"beta_list": []}),         # exit 0, jensen_ok from no grid point
    ("quenched-scan", {"h_list": []}),            # exit 0, jensen_ok from no grid point
    ("second-moment-scan", {"n_max_gen": 1}),     # exit 0, k_hat 0.0
    # checks across keys, raised from the body before any work
    ("annealed-scan", {"points": 2}),             # one h <= fit_h_max: slopes NaN, exit 0
    ("annealed-scan", {"h_min": 1}),              # no h <= fit_h_max: slopes NaN, exit 0
    # W's pair guard: above alpha = 1 the pair count grows as L_w^2 (18.5 s, exit 0)
    ("clt-check", {"alpha": 1.5, "L_exact": 2_000, "L_w": 10_000, "w_samples": 500,
                   "n_max": 10_000}),
    # the DP's size guard, raised before quenched-scan draws any disorder
    ("quenched-scan", {"N": 100_001}),
    # past the coarse-grained terms' block-count guard: exit 2, but only once
    # a trial drew 7 blocks, after the trials before it had run
    ("decomposition-check", {"max_blocks": 7}),
])
def test_run_bad_parameter_exits_2(tmp_path, capsys, name, bad):
    cfg = write_config(tmp_path, name, seed=1, **bad)
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def _stub(body):
    """`body`'s signature, and so its schema, with no work behind it."""
    @functools.wraps(body)
    def stub(rec, **params):
        rec.notes["params"] = params
        return {}
    return stub


# the small ints and the floats fall on both sides of every declared window
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2, 5),
                     st.floats(), st.sampled_from([0.0, 1.0, 2.0]), st.text(max_size=3))


@st.composite
def _configs(draw):
    """A JSON object over one experiment's keys, "rec" among them, and junk keys."""
    name = draw(st.sampled_from(sorted(experiments.EXPERIMENTS)))
    keys = [*inspect.signature(experiments.EXPERIMENTS[name]).parameters, "n_max_genn",
            "disorder_samples"]
    params = draw(st.dictionaries(st.sampled_from(keys),
                                  st.one_of(_SCALARS, st.just([]),
                                            st.lists(_SCALARS, max_size=3)),
                                  max_size=4))
    seed = draw(st.one_of(st.integers(0, 2**32), _SCALARS))
    return {"experiment": name, "seed": seed, **params}


@settings(max_examples=150, deadline=None)
@given(raw=_configs())
def test_any_config_runs_or_exits_2(raw):
    # every drawn config runs (0) or is refused (2): never 1, never a traceback
    stubs = {k: _stub(body) for k, body in experiments.EXPERIMENTS.items()}
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(experiments, "EXPERIMENTS", stubs)
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(raw))
        rc = cli.main(["run", "--config", str(path)])
    assert rc in (0, 2) and "Traceback" not in err.getvalue()
    if rc == 0:  # no key dropped unread, and the record holds what the body got
        rec = json.loads(out.getvalue())
        params = rec["notes"]["params"]
        assert set(raw) - {"experiment", "seed", "disorder_samples"} <= set(params)
        assert rec["config"] == {"experiment": raw["experiment"], "seed": raw["seed"], **params}


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, "gw-check", seed=99, mc_n=4, mc_samples=5000)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out2)]) == 0
    c1 = (out1 / "gw-check.exact.csv").read_bytes()
    c2 = (out2 / "gw-check.exact.csv").read_bytes()
    assert c1 == c2


def test_seed_override_changes_estimates(tmp_path):
    cfg = write_config(tmp_path, "gw-check", seed=1, mc_n=4, mc_samples=5000)
    r1 = run_experiment(ExperimentConfig.from_json(cfg))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", cfg, "--seed", "2", "--out", str(out)]) == 0
    r2 = json.loads((out / "gw-check.record.json").read_text())
    assert r2["seed"] == 2
    assert r2["estimates"]["mc_single_leaf"]["value"] != \
        r1.estimates["mc_single_leaf"]["value"]


def test_acceptance_subset_and_summary(tmp_path):
    out = tmp_path / "acc"
    rc = cli.main(["acceptance", "--criteria", "2", "5", "--dir", str(out)])
    assert rc == 0
    summary = (out / "acceptance.summary.csv").read_text().splitlines()
    assert any("overlap-identity" in line for line in summary)
    assert (out / "acceptance.summary.json").exists()


def test_acceptance_summary_holds_json_booleans(monkeypatch, tmp_path):
    # a doctored clt-check record, its W mean twice the limit, fails crit_13;
    # the limit is a numpy float, as `quenched.w_limit_scale` gives it, so
    # the judge returns a numpy.bool_, and the summary must still say false
    def doctored(cfg, *out):
        rec = RunRecord(experiment=cfg.experiment, seed=cfg.seed, config=cfg.to_dict(),
                        config_sha256=cfg.sha256)
        rec.estimates["ks_distance"] = estimate(0.0849)
        rec.estimates["w_mean"] = estimate(2 * 0.3415, 0.0033)
        rec.baselines["w_mean_limit"] = np.float64(0.34573)
        return rec

    monkeypatch.setattr(acc, "run_experiment", doctored)
    rc = cli.main(["acceptance", "--criteria", "13", "--dir", str(tmp_path)])
    assert rc == 1
    [row] = json.loads((tmp_path / "acceptance.summary.json").read_text())
    assert row["number"] == 13 and row["passed"] is False
