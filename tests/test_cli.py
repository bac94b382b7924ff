import json
from pathlib import Path

import numpy as np
import pytest

from npde.cli import _load_config, main
from npde.fieldio import load_block


def run_cli(args):
    return main([str(a) for a in args])


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def frozen_heat_config(out_dir, n_steps=3):
    return {
        "grid": {"n_points": 5, "h": 1.0, "k": 0.1, "bc": "periodic"},
        "model": {"kind": "heat", "A": 0.0},
        "run": {"n_steps": n_steps, "scheme": "explicit", "seed": 0,
                "initial": {"kind": "values", "values": [1.0, 2.0, 3.0, 4.0, 5.0]}},
        "io": {"out_dir": str(out_dir)},
    }


def test_solve_frozen_dynamics_output_equals_input(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, frozen_heat_config(out))
    assert run_cli(["solve", "--config", cfg]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 4
    for row in rows:
        assert row.split(",")[1:] == ["1", "2", "3", "4", "5"]
    printed = capsys.readouterr().out
    assert "min=1" in printed and "max=5" in printed and "sum=15" in printed


def test_solve_unstable_run_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "grid": {"n_points": 64, "h": 1.0, "k": 0.6, "bc": "periodic"},
        "model": {"kind": "heat", "A": 1.0},
        "run": {"n_steps": 500, "scheme": "explicit",
                "initial": {"kind": "delta", "index": 32}},
        "io": {"out_dir": str(out)},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path]) == 2
    assert "diverged at step" in capsys.readouterr().err


def test_solve_gray_scott_writes_frames(tmp_path):
    out = tmp_path / "gs"
    cfg = {
        "grid": {"n_points": 16, "h": 0.02, "k": 1.0, "bc": "periodic", "ndim": 2},
        "model": {"kind": "gray_scott",
                  "two_component": {"F": 0.04, "kr": 0.06, "Du": 2e-5, "Dv": 1e-5}},
        "run": {"n_steps": 20, "frame_stride": 5, "seed": 1,
                "initial": {"kind": "uniform", "value": 1.0}},
        "io": {"out_dir": str(out)},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path]) == 0
    frames = sorted(out.glob("v_*.pgm"))
    assert len(frames) == 4            # n_steps / frame_stride
    assert frames[0].read_bytes().startswith(b"P5\n16 16\n255\n")
    assert (out / "u_final.csv").exists() and (out / "v_final.csv").exists()


def test_invalid_config_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = frozen_heat_config(out)
    del cfg["grid"]["bc"]
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path]) == 1
    assert "grid.bc" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run_cli(["solve", "--config", tmp_path / "nope.json"]) == 1
    assert "not found" in capsys.readouterr().err


def test_unstable_r_rejected_only_at_runtime_not_config(tmp_path):
    # cfl is a solver property, not config validation: the run proceeds and
    # divergence is what exits nonzero
    out = tmp_path / "out"
    cfg = frozen_heat_config(out)
    cfg["grid"]["k"] = 10.0
    cfg["model"]["A"] = 0.0            # frozen: never diverges
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path]) == 0


def test_solve_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = {
        "grid": {"n_points": 12, "h": 0.5, "k": 0.05, "bc": "dirichlet",
                 "bc_value": 0.0},
        "model": {"kind": "fisher", "A": 1.0, "r": 0.8},
        "run": {"n_steps": 10, "seed": 5,
                "initial": {"kind": "random", "low": 0.0, "high": 1.0}},
        "io": {"out_dir": str(out1)},
    }
    p1 = write_config(tmp_path, cfg, "c1.json")
    cfg["io"]["out_dir"] = str(out2)
    p2 = write_config(tmp_path, cfg, "c2.json")
    assert run_cli(["solve", "--config", p1]) == 0
    assert run_cli(["solve", "--config", p2]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()


def test_formats_key_filters_outputs(tmp_path):
    out = tmp_path / "gs"
    cfg = {
        "grid": {"n_points": 16, "h": 0.02, "k": 1.0, "bc": "periodic", "ndim": 2},
        "model": {"kind": "gray_scott",
                  "two_component": {"F": 0.04, "kr": 0.06, "Du": 2e-5, "Dv": 1e-5}},
        "run": {"n_steps": 10, "frame_stride": 5, "seed": 1},
        "io": {"out_dir": str(out), "formats": ["pgm"]},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path]) == 0
    assert list(out.glob("v_*.pgm")) and not list(out.glob("*.csv"))
    cfg["io"]["formats"] = ["webp"]
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path]) == 1


def test_out_flag_and_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, frozen_heat_config(tmp_path / "from_config"))
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("NPDE_OUT", str(env_dir))
    assert run_cli(["solve", "--config", cfg]) == 0
    assert (env_dir / "trajectory.csv").exists()
    flag_dir = tmp_path / "from_flag"
    assert run_cli(["solve", "--config", cfg, "--out", flag_dir]) == 0
    assert (flag_dir / "trajectory.csv").exists()


def _linreg_files(tmp_path):
    rng = np.random.default_rng(80)
    X = rng.standard_normal((12, 3))
    y = X @ np.array([1.0, -2.0, 0.5])        # exact linear data
    rows = "".join(",".join(str(v) for v in np.concatenate([x, [t]])) + "\n"
                   for x, t in zip(X, y))
    data_path = tmp_path / "linreg.csv"
    data_path.write_text(rows)
    cfg = {
        "train": {"dataset": str(data_path), "max_epochs": 5,
                  "pipeline": [{"kind": "dense", "in": 3, "out": 1,
                                "activation": "none"}]},
        "optimizer": {"kind": "gauss_newton", "eta": 1.0},
        "loss": {"nu": 0.0, "target_loss": 1e-12},
        "run": {"seed": 0},
        "io": {"out_dir": str(tmp_path / "fit")},
    }
    return write_config(tmp_path, cfg, "train.json")


def test_train_linear_regression_one_epoch(tmp_path, capsys):
    cfg = _linreg_files(tmp_path)
    assert run_cli(["train", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert "epochs=1" in printed and "converged=true" in printed
    curve = (tmp_path / "fit" / "loss_curve.csv").read_text().splitlines()
    assert len(curve) == 1 and curve[0].startswith("1,")
    model = json.loads((tmp_path / "fit" / "model.json").read_text())
    assert model["kind"] == "pipeline" and model["blocks"][0]["kind"] == "dense"


def test_train_vacuous_target_exits_zero(tmp_path, capsys):
    cfg_path = _linreg_files(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["loss"]["target_loss"] = 1e300
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", cfg_path]) == 0
    assert "converged=true" in capsys.readouterr().out


def test_train_missing_dataset_names_path(tmp_path, capsys):
    cfg_path = _linreg_files(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["train"]["dataset"] = str(tmp_path / "absent.csv")
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", cfg_path]) == 1
    assert "absent.csv" in capsys.readouterr().err


def test_train_missing_target_loss_rejected(tmp_path, capsys):
    cfg_path = _linreg_files(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    del cfg["loss"]["target_loss"]
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", cfg_path]) == 1
    assert "target_loss" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["beta", "lambda"])
def test_train_rejects_inert_penalty_weight(tmp_path, capsys, key):
    cfg_path = _linreg_files(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["loss"][key] = 0.5
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", cfg_path]) == 1
    assert f"loss.{key}" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()
    cfg["loss"][key] = 0.0
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", cfg_path]) == 0


def test_gen_block_conv1d_kernel_rows(tmp_path):
    out = tmp_path / "blocks"
    cfg = {
        "grid": {"n_points": 6, "h": 1.0, "k": 0.25, "bc": "dirichlet",
                 "bc_value": 0.0},
        "model": {"kind": "heat", "A": 1.0},
        "block": {"kind": "conv1d"},
        "io": {"out_dir": str(out)},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["gen-block", "--config", path]) == 0
    block = load_block(out / "block_conv1d.json")
    for row in block.kernels:
        np.testing.assert_allclose(row, [0.25, 0.5, 0.25], atol=1e-15)


def test_gen_block_rnn_records_input_coupling(tmp_path):
    out = tmp_path / "blocks"
    cfg = {
        "grid": {"n_points": 5, "h": 1.0, "k": 0.2, "bc": "periodic"},
        "block": {"kind": "rnn", "Dxy": 0.0, "Dz": 0.0, "v": 2.0},
        "io": {"out_dir": str(out)},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["gen-block", "--config", path]) == 0
    raw = json.loads((out / "block_rnn.json").read_text())
    U = np.asarray(raw["weights"]["U"]).reshape(5, 5)
    W2 = np.asarray(raw["weights"]["W2"]).reshape(5, 5)
    np.testing.assert_allclose(np.diag(U), -0.2 / 2.0, atol=1e-15)
    np.testing.assert_allclose(W2, 0.0, atol=1e-15)


def test_gen_block_round_trip_bytes(tmp_path):
    out = tmp_path / "blocks"
    cfg = {
        "grid": {"n_points": 6, "h": 0.5, "k": 0.05, "bc": "periodic"},
        "model": {"kind": "scalar", "A": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
                  "reaction": {"kind": "fisher", "rate": 1.0}},
        "block": {"kind": "conv1d"},
        "io": {"out_dir": str(out)},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["gen-block", "--config", path]) == 0
    block_path = out / "block_conv1d.json"
    original = block_path.read_bytes()
    from npde.fieldio import save_block
    save_block(block_path, load_block(block_path))
    assert block_path.read_bytes() == original


def test_gen_block_invalid_kind(tmp_path, capsys):
    cfg = {
        "grid": {"n_points": 5, "h": 1.0, "k": 0.1, "bc": "periodic"},
        "block": {"kind": "attention"},
        "io": {"out_dir": str(tmp_path / "b")},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["gen-block", "--config", path]) == 1
    assert "attention" in capsys.readouterr().err


def test_verify_unknown_suite_exits_1(capsys):
    assert run_cli(["verify", "everything"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "stencils" in err


def test_verify_stencils_passes(capsys):
    assert run_cli(["verify", "stencils"]) == 0
    out = capsys.readouterr().out
    assert "PASS stencil-9pt-taps" in out
    assert "FAIL" not in out


def test_no_command_prints_usage(capsys):
    assert run_cli([]) == 1


def test_unknown_flag_exits_1(capsys):
    assert run_cli(["solve", "--bogus"]) == 1


def _gray_scott_config(out_dir):
    return {
        "grid": {"n_points": 8, "h": 0.02, "k": 1.0, "bc": "periodic", "ndim": 2},
        "model": {"kind": "gray_scott",
                  "two_component": {"F": 0.04, "kr": 0.06, "Du": 2e-5, "Dv": 1e-5}},
        "run": {"n_steps": 2, "seed": 1},
        "io": {"out_dir": str(out_dir)},
    }


@pytest.mark.parametrize("path,key", [
    (("run",), "shceme"),
    ((), "grids"),
    (("grid",), "bc_vlaue"),
    (("run", "initial"), "vlaue"),
    (("io",), "format"),
])
def test_solve_rejects_unknown_key_by_dotted_name(tmp_path, capsys, path, key):
    out = tmp_path / "out"
    cfg = frozen_heat_config(out)
    section = cfg
    for name in path:
        section = section[name]
    section[key] = "implicit"
    assert run_cli(["solve", "--config", write_config(tmp_path, cfg)]) == 1
    assert f"unknown config key {'.'.join(path + (key,))}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_nested_keys_rejected_in_every_command(tmp_path, capsys):
    gs = _gray_scott_config(tmp_path / "gs")
    gs["model"]["two_component"]["Dw"] = 1e-5
    assert run_cli(["solve", "--config", write_config(tmp_path, gs)]) == 1
    assert "model.two_component.Dw" in capsys.readouterr().err
    cfg_path = _linreg_files(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["train"]["pipeline"][0]["activaton"] = "sigmoid"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["train", "--config", cfg_path]) == 1
    assert "train.pipeline[0].activaton" in capsys.readouterr().err
    block = {"grid": {"n_points": 5, "h": 1.0, "k": 0.1, "bc": "periodic"},
             "block": {"kind": "rnn", "Dxy": 0.0, "Dz": 0.0, "v": 2.0, "vv": 1.0}}
    assert run_cli(["gen-block", "--config", write_config(tmp_path, block)]) == 1
    assert "block.vv" in capsys.readouterr().err


def test_section_must_be_an_object(tmp_path, capsys):
    cfg = frozen_heat_config(tmp_path / "out")
    cfg["io"] = ["out"]
    assert run_cli(["solve", "--config", write_config(tmp_path, cfg)]) == 1
    assert "io must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("scheme", "implicit"), ("stencil2d", "5pt")])
def test_gray_scott_rejects_a_scheme_it_cannot_run(tmp_path, capsys, key, value):
    out = tmp_path / "gs"
    cfg = _gray_scott_config(out)
    cfg["run"][key] = value
    assert run_cli(["solve", "--config", write_config(tmp_path, cfg)]) == 1
    assert f"run.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_gray_scott_accepts_the_scheme_it_runs(tmp_path):
    cfg = _gray_scott_config(tmp_path / "gs")
    cfg["run"].update(scheme="explicit", stencil2d="9pt")
    assert run_cli(["solve", "--config", write_config(tmp_path, cfg)]) == 0


def test_readme_solve_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert _load_config(str(path)) == json.loads(block)
