"""End-to-end CLI workflows through the argparse front end."""

import csv
import json
import os

import numpy as np
import pytest

from hybridldpc import density_evolution
from hybridldpc.channel import ChannelParams, transmit
from hybridldpc.cli import _COMMON_KEYS, _DIRECTION_KEYS, _parse_ebn0, main
from hybridldpc.codec import symbols_to_bits
from hybridldpc.construction import build_code, load_code, save_code
from hybridldpc.ensembles import Ensemble, fixture_path
from hybridldpc.optimization import ConstraintGrid, OptimizationError, optimize_gamma


@pytest.fixture
def ensemble_file(tmp_path):
    path = os.path.join(tmp_path, "ens.json")
    Ensemble.from_factored([4], {3: 1.0}, {6: 1.0}, {3: {4: 1.0}},
                           name="cli-test").save(path)
    return path


def test_parse_ebn0_forms():
    assert _parse_ebn0("0.5,1.5,2") == [0.5, 1.5, 2.0]
    assert _parse_ebn0("1.0:0.5:2.5") == [1.0, 1.5, 2.0, 2.5]
    with pytest.raises(ValueError):
        _parse_ebn0("1:-0.5:2")


def test_parse_ebn0_rejects_empty_range(capsys):
    # start above stop parses to no point at all: a usage error that names
    # the spec, before the code file is opened
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--code", "missing.alist", "--ebn0", "3:0.5:1"])
    assert exc.value.code == 2
    assert "argument --ebn0: range '3:0.5:1'" in capsys.readouterr().err


def test_threshold_command_rejects_zero_tolerance(ensemble_file, monkeypatch, capsys):
    calls = []

    def limited(ens, sigma):
        calls.append(sigma)
        if len(calls) > 100:
            raise AssertionError("bisection did not stop")
        return sigma < 0.9

    monkeypatch.setattr(density_evolution, "de_converges", limited)
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--ensemble", ensemble_file, "--tol-db", "0"])
    assert exc.value.code == 2
    assert "argument --tol-db: '0' is not positive" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv, shown", [
    (["simulate", "--code", "missing.alist", "--ebn0", "abc"], "'abc'"),
    (["simulate", "--code", "missing.alist", "--ebn0", "1:-0.5:2"], "'1:-0.5:2'"),
    (["simulate", "--code", "missing.alist", "--ebn0", "0:1:inf"], "'0:1:inf'"),
    (["threshold", "--ensemble", "missing.json", "--tol-db", "-0.01"], "'-0.01'"),
    (["threshold", "--ensemble", "missing.json", "--tol-db", "abc"], "'abc'"),
    (["simulate", "--code", "missing.alist", "--ebn0", "nan"], "'nan'"),
    (["simulate", "--code", "missing.alist", "--ebn0", "1,inf"], "'inf' is not finite"),
    (["simulate", "--code", "missing.alist", "--ebn0", "1", "--rate", "2"], "'2'"),
    (["simulate", "--code", "missing.alist", "--ebn0", "1", "--seed", "-2"], "'-2'"),
    (["decode", "--code", "missing.alist", "--in", "missing.txt", "--sigma", "-1"], "'-1'"),
    (["decode", "--code", "missing.alist", "--in", "missing.txt", "--sigma", "nan"], "'nan'"),
    (["decode", "--code", "missing.alist", "--in", "missing.txt", "--ebn0-db", "nan"],
     "'nan'"),
    (["construct", "--ensemble", "missing.json", "--n-bits", "240", "--seed", "-1",
      "--out", "missing.alist"], "'-1'"),
    (["threshold", "--ensemble", "missing.json", "--tol-db", "inf"], "'inf'"),
])
def test_bad_numbers_are_usage_errors_before_any_file_is_read(argv, shown, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert shown in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-iter", "--chunk-frames", "--workers", "--max-frames",
                                  "--min-frame-errors"])
@pytest.mark.parametrize("value", ["0", "-2", "2.5", "abc"])
def test_campaign_counts_are_usage_errors(flag, value, capsys):
    # a chunk of no frames, a fractional iteration cap or no worker would
    # hang or fail deep in a campaign, a point of no frames would be cached
    # as a measurement, and a point that needs no frame error would stop
    # after its first chunk; each is refused while parsing
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--code", "missing.alist", "--ebn0", "1", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: '{value}' is not a positive integer" in capsys.readouterr().err


def test_decode_iteration_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--code", "missing.alist", "--in", "missing.txt", "--sigma", "0.8",
              "--max-iter", "0"])
    assert exc.value.code == 2
    assert "argument --max-iter: '0' is not a positive integer" in capsys.readouterr().err


def test_construct_encode_decode_cycle(tmp_path, ensemble_file, capsys):
    code_path = os.path.join(tmp_path, "code.alist")
    rc = main(["construct", "--ensemble", ensemble_file,
               "--n-bits", "240", "--seed", "3", "--out", code_path])
    assert rc == 0
    assert "rate" in capsys.readouterr().out
    code = load_code(code_path)
    assert code.n_bits == 240

    rng = np.random.default_rng(0)
    info = rng.integers(0, 4, size=(5, code.n_info))
    info_path = os.path.join(tmp_path, "info.txt")
    np.savetxt(info_path, info, fmt="%d")
    cw_path = os.path.join(tmp_path, "cw.txt")
    rc = main(["encode", "--code", code_path, "--in", info_path,
               "--out", cw_path])
    assert rc == 0
    cw = np.loadtxt(cw_path, dtype=np.int64, ndmin=2)
    assert cw.shape == (5, code.n)
    assert np.array_equal(cw[:, : code.n_info], info)

    # a quiet channel: every frame must come back exactly
    params = ChannelParams.from_ebn0_db(7.0, code.rate())
    y = transmit(symbols_to_bits(code, cw), params, rng)
    y_path = os.path.join(tmp_path, "received.txt")
    np.savetxt(y_path, y)
    out_path = os.path.join(tmp_path, "decoded.txt")
    rc = main(["decode", "--code", code_path, "--in", y_path,
               "--ebn0-db", "7.0", "--max-iter", "50", "--out", out_path])
    assert rc == 0
    decoded = np.loadtxt(out_path, dtype=np.int64, ndmin=2)
    assert np.array_equal(decoded, cw)


def test_decode_exit_code_on_failure(tmp_path, ensemble_file):
    code_path = os.path.join(tmp_path, "code.alist")
    main(["construct", "--ensemble", ensemble_file, "--n-bits", "240",
          "--seed", "3", "--out", code_path])
    code = load_code(code_path)
    rng = np.random.default_rng(1)
    # hopeless channel: syndrome cannot be satisfied for every frame
    y = rng.normal(size=(8, code.n_bits))
    y_path = os.path.join(tmp_path, "received.txt")
    np.savetxt(y_path, y)
    rc = main(["decode", "--code", code_path, "--in", y_path,
               "--sigma", "1.4", "--max-iter", "3",
               "--out", os.path.join(tmp_path, "dec.txt")])
    assert rc == 1


def test_threshold_command(capsys):
    rc = main(["threshold", "--ensemble", fixture_path("r12_gf8_regular36"),
               "--tol-db", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "threshold" in out
    db = float(out.split("threshold")[1].split("dB")[0])
    assert 0.8 < db < 1.2


def test_optimize_command_lambda(tmp_path, capsys):
    config = {
        "direction": "lambda",
        "gamma_profile": {"2": {"8": 1.0}, "3": {"2": 1.0}, "4": {"2": 1.0}},
        "rho": {"6": 1.0},
        "sigma": 0.8,
        "rate_eq": 0.4,
        "grid": {"points": 40},
        "name": "cli-design",
    }
    cfg_path = os.path.join(tmp_path, "design.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    out_path = os.path.join(tmp_path, "designed.json")
    rc = main(["optimize", "--config", cfg_path, "--out", out_path])
    assert rc == 0
    assert "lambda:" in capsys.readouterr().out
    ens = Ensemble.load(out_path)
    assert ens.rate() == pytest.approx(0.4, abs=1e-9)


def _run_optimize(tmp_path, config) -> str:
    cfg_path = os.path.join(tmp_path, "design.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    out_path = os.path.join(tmp_path, "designed.json")
    assert main(["optimize", "--config", cfg_path, "--out", out_path]) == 0
    return out_path


def test_optimize_command_gamma(tmp_path, capsys):
    config = {"direction": "gamma", "groups": [2, 4], "d_v": 3, "d_c": 6,
              "sigma": 0.7, "rate_eq": 0.45, "grid": {"points": 30}}
    ens = Ensemble.load(_run_optimize(tmp_path, config))
    out = capsys.readouterr().out
    assert "gamma:" in out and "design sigma 0.7000" in out
    assert ens.groups == (2, 4)
    assert ens.rate() == pytest.approx(0.45, abs=1e-9)


def test_optimize_command_bisects_sigma(tmp_path, capsys):
    # no "sigma" key: the design sits at the noisiest feasible channel,
    # found to within the bisection tolerance of 1e-3
    config = {"direction": "gamma", "groups": [2, 4], "d_v": 3, "d_c": 6,
              "rate_min": 0.45, "grid": {"points": 30}}
    ens = Ensemble.load(_run_optimize(tmp_path, config))
    out = capsys.readouterr().out
    sigma = float(out.split("design sigma")[1].split()[0])
    assert 0.5 < sigma < 3.5
    assert ens.rate() >= 0.45 - 1e-9
    grid = ConstraintGrid(points=30)
    optimize_gamma(3, 6, [2, 4], sigma - 1e-3, grid=grid, rate_min=0.45)
    with pytest.raises(OptimizationError):
        optimize_gamma(3, 6, [2, 4], sigma + 2e-3, grid=grid, rate_min=0.45)


def test_optimize_rejects_unknown_grid_key(tmp_path):
    config = {"direction": "gamma", "groups": [2, 4], "d_v": 3, "d_c": 6,
              "sigma": 0.7, "rate_eq": 0.45, "grid": {"point": 40}}
    with pytest.raises(SystemExit, match="unknown grid key.*point"):
        _run_optimize(tmp_path, config)


@pytest.mark.parametrize("key", ["rate_mn", "rho"])
def test_optimize_rejects_unknown_key(tmp_path, key):
    # a misspelled key, and a key of the other direction
    config = {"direction": "gamma", "groups": [2, 4], "d_v": 3, "d_c": 6,
              "sigma": 0.7, key: 0.45}
    with pytest.raises(SystemExit, match=f"unknown key.*{key}"):
        _run_optimize(tmp_path, config)


README_LAMBDA = {"direction": "lambda",
                 "gamma_profile": {"2": {"8": 1.0}, "3": {"2": 1.0},
                                   "8": {"2": 0.3, "8": 0.7}},
                 "rho": {"6": 1.0}, "sigma": 0.75, "rate_min": 0.5}


@pytest.mark.parametrize("config, message", [
    ({**README_LAMBDA, "sigma": 0.93}, "linear program failed"),
    ({**README_LAMBDA, "rho": {"6": 0.5}}, "rho masses sum to 0.5"),
    ({"direction": "gamma", "groups": [], "d_v": 2, "d_c": 3, "sigma": 1.0},
     "no variable groups"),
    ({"direction": "gamma", "groups": [2, 4], "d_v": 3, "d_c": 6, "sigma": 0.7,
      "rate_eq": 0.45, "grid": {"points": 30, "margin": -5}},
     "margin -5 must be positive and finite"),
    ({"direction": "gamma", "groups": [2, 4], "d_v": 3, "d_c": 6, "sigma": 0.7,
      "rate_eq": 0.45, "grid": {"points": 30, "margin": 0}},
     "margin 0 must be positive and finite"),
], ids=["infeasible", "bad-rho", "no-groups", "negative-margin", "zero-margin"])
def test_optimize_reports_design_errors_in_one_line(tmp_path, config, message):
    with pytest.raises(SystemExit) as exc:
        _run_optimize(tmp_path, config)
    text = str(exc.value.code)
    assert text.startswith("optimize: ") and message in text
    assert "\n" not in text


def _bad_inputs(tmp_path) -> dict:
    """Files no command can use: ensembles whose masses do not sum to 1,
    that are not JSON, have no groups or a short pi row; an alist cut
    after its magic line; optimize configs, among them values of the
    wrong type; frame files for a 48-bit binary code, with a letter, a
    symbol outside G(2) or a NaN, or with no frames at all."""
    paths = {"missing": os.path.join(tmp_path, "missing.txt"),
             "binary": os.path.join(tmp_path, "binary.alist")}
    doc = Ensemble.from_factored([4], {3: 1.0}, {6: 1.0}, {3: {4: 1.0}}).to_json_dict()
    bad_mass = dict(doc, pi=[doc["pi"][0][:-1] + [0.5]])
    no_groups = {k: v for k, v in doc.items() if k != "groups"}
    short_row = dict(doc, pi=[doc["pi"][0][:4]])
    no_d_c = {"direction": "gamma", "groups": [2, 4], "d_v": 3, "sigma": 0.7}
    gamma = dict(no_d_c, d_c=6)
    lambda_ = {"direction": "lambda", "gamma_profile": {"x": {"2": 1.0}},
               "rho": {"6": 1.0}, "sigma": 0.7}
    binary = build_code(Ensemble.from_factored([2], {3: 1.0}, {6: 1.0}, {3: {2: 1.0}}),
                        48, seed=1)
    save_code(binary, paths["binary"])
    texts = {"ens": json.dumps(bad_mass), "no_groups": json.dumps(no_groups),
             "short_row": json.dumps(short_row), "no_d_c": json.dumps(no_d_c),
             "d_v_text": json.dumps(dict(gamma, d_v="x")),
             "points_text": json.dumps(dict(gamma, grid={"points": "a"})),
             "profile_key": json.dumps(lambda_),
             "sigma_negative": json.dumps(dict(gamma, sigma=-1)),
             "sigma_bracket": json.dumps({**{k: v for k, v in gamma.items() if k != "sigma"},
                                          "sigma_lo": 2.0, "sigma_hi": 1.0}),
             "not_json": "groups: [4]\n", "code": "hybrid-alist 1\n", "empty": "",
             "letter": " ".join(["0"] * (binary.n_info - 1) + ["x"]) + "\n",
             "twos": " ".join(["2"] * binary.n_info) + "\n",
             "nan": " ".join(["nan"] * binary.n_bits) + "\n"}
    for key, text in texts.items():
        paths[key] = os.path.join(tmp_path, f"{key}.txt")
        with open(paths[key], "w") as fh:
            fh.write(text)
    return paths


@pytest.mark.parametrize("argv, message", [
    (["construct", "--ensemble", "{ens}", "--n-bits", "240", "--out", "{missing}"],
     "edge masses sum to 0.5"),
    (["threshold", "--ensemble", "{missing}"], "No such file or directory"),
    (["encode", "--code", "{code}", "--in", "{missing}"], "line 2: unexpected end of file"),
    (["decode", "--code", "{code}", "--in", "{missing}", "--sigma", "0.8"],
     "line 2: unexpected end of file"),
    (["simulate", "--code", "{missing}", "--ebn0", "1"], "No such file or directory"),
    (["threshold", "--ensemble", "{not_json}"], "not_json.txt: not JSON: Expecting value"),
    (["construct", "--ensemble", "{no_groups}", "--n-bits", "240", "--out", "{missing}"],
     "no_groups.txt: ensemble document has no groups list"),
    (["threshold", "--ensemble", "{short_row}"],
     "short_row.txt: pi row [3, 6, 4, 4] is not five numbers"),
    (["optimize", "--config", "{not_json}", "--out", "{missing}"],
     "not_json.txt: not JSON: Expecting value"),
    (["optimize", "--config", "{no_d_c}", "--out", "{missing}"],
     "no_d_c.txt: missing key(s) d_c"),
    (["encode", "--code", "{binary}", "--in", "{letter}"],
     "letter.txt: could not convert string 'x' to int64"),
    (["encode", "--code", "{binary}", "--in", "{twos}"],
     "twos.txt: column 0: symbol 2 is outside G(2)"),
    (["decode", "--code", "{binary}", "--in", "{nan}", "--sigma", "0.8"],
     "nan.txt: values must be finite"),
    (["optimize", "--config", "{d_v_text}", "--out", "{missing}"],
     'd_v_text.txt: d_v must be an integer, got "x"'),
    (["optimize", "--config", "{points_text}", "--out", "{missing}"],
     'points_text.txt: grid.points must be an integer, got "a"'),
    (["optimize", "--config", "{profile_key}", "--out", "{missing}"],
     "profile_key.txt: gamma_profile must be an object of degree: {group: edge mass}"),
    (["optimize", "--config", "{sigma_negative}", "--out", "{missing}"],
     "sigma_negative.txt: sigma must be a positive number, got -1"),
    (["optimize", "--config", "{sigma_bracket}", "--out", "{missing}"],
     "sigma_bracket.txt: sigma_lo 2.0 must be below sigma_hi 1.0"),
    (["encode", "--code", "{binary}", "--in", "{empty}"], "empty.txt: no frames"),
    (["decode", "--code", "{binary}", "--in", "{empty}", "--sigma", "0.8"],
     "empty.txt: no frames"),
], ids=["construct", "threshold", "encode", "decode", "simulate", "ensemble-not-json",
        "ensemble-no-groups", "ensemble-short-pi-row", "config-not-json", "config-no-d_c",
        "frame-letter", "frame-symbol-outside-group", "frame-nan", "config-d_v-text",
        "config-grid-points-text", "config-profile-key-text", "config-sigma-negative",
        "config-sigma-bracket",
        "encode-empty", "decode-empty"])
def test_commands_report_bad_input_in_one_line(tmp_path, argv, message, recwarn):
    paths = _bad_inputs(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    text = str(exc.value.code)
    assert text.startswith(f"{argv[0]}: ") and message in text
    assert "\n" not in text
    assert [str(w.message) for w in recwarn] == []


def test_every_optimize_key_is_documented():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Optimizer config", 1)[1].split("\n## ", 1)[0]
    keys = _COMMON_KEYS.union(*_DIRECTION_KEYS.values())
    missing = sorted(k for k in keys if f"`{k}`" not in section)
    assert not missing, f"README's Optimizer config does not name {missing}"


def test_optimize_rejects_conflicting_rates(tmp_path):
    config = {"direction": "lambda", "gamma_profile": {"3": {"2": 1.0}},
              "rho": {"6": 1.0}, "sigma": 0.8,
              "rate_min": 0.3, "rate_eq": 0.4}
    cfg_path = os.path.join(tmp_path, "design.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    with pytest.raises(SystemExit):
        main(["optimize", "--config", cfg_path,
              "--out", os.path.join(tmp_path, "x.json")])


def test_simulate_command(tmp_path, ensemble_file, capsys):
    code_path = os.path.join(tmp_path, "code.alist")
    main(["construct", "--ensemble", ensemble_file, "--n-bits", "240",
          "--seed", "2", "--out", code_path])
    csv_path = os.path.join(tmp_path, "points.csv")
    rc = main(["simulate", "--code", code_path, "--ebn0", "2.0,3.0",
               "--max-iter", "25", "--min-frame-errors", "5",
               "--max-frames", "200", "--chunk-frames", "32",
               "--seed", "9", "--out", csv_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fer" in out
    with open(csv_path) as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 3
    assert rows[0].startswith("ebn0_db,")


def test_simulate_keys_cached_points_on_the_codeword_mode(tmp_path, ensemble_file, capsys):
    # the same point with random codewords is another measurement: it
    # runs instead of being served the all-zero row, and each run of
    # either mode finds its own row again
    code_path = os.path.join(tmp_path, "code.alist")
    main(["construct", "--ensemble", ensemble_file, "--n-bits", "240",
          "--seed", "2", "--out", code_path])
    csv_path = os.path.join(tmp_path, "c.csv")
    argv = ["simulate", "--code", code_path, "--ebn0", "1.0", "--max-frames", "8",
            "--seed", "3", "--out", csv_path]
    for extra, cached in (([], False), (["--random-codewords"], False),
                          ([], True), (["--random-codewords"], True)):
        assert main(argv + extra) == 0
        assert ("dB: cached" in capsys.readouterr().out) == cached, extra
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["random_codewords"] for r in rows] == ["False", "True"]
