import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npde import train
from npde.cli import _load_config, main
from npde.fieldio import block_from_dict, fmt, load_block


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
        "run": {"n_steps": 20, "frame_stride": 5, "seed": 1},
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


@pytest.mark.parametrize("optimizer, target_loss", [
    ({"kind": "sgd", "eta": 0.01}, 0.0),          # five epochs
    ({"kind": "gauss_newton", "eta": 1.0}, 1e-12),  # one epoch
    ({"kind": "gauss_newton", "eta": 1.0}, 1e300),  # zero epochs: an empty file
])
def test_loss_curve_bytes_match_fstring_writer(tmp_path, monkeypatch, optimizer,
                                               target_loss):
    reports, real = [], train.train_supervised
    monkeypatch.setattr(train, "train_supervised",
                        lambda *a: reports.append(real(*a)) or reports[-1])
    cfg_path = _linreg_files(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["optimizer"], cfg["loss"]["target_loss"] = optimizer, target_loss
    cfg_path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        run_cli(["train", "--config", cfg_path])
    expected = "".join(f"{i + 1},{fmt(v)}\n" for i, v in enumerate(reports[0].loss_curve))
    assert (tmp_path / "fit" / "loss_curve.csv").read_bytes() == expected.encode()
    assert expected.count("\n") == {0.0: 5, 1e-12: 1, 1e300: 0}[target_loss]


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
    # training reads no penalty weight: either key is unknown, even when 0
    cfg_path = _linreg_files(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    for value in (0.5, 0.0):
        cfg["loss"][key] = value
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["train", "--config", cfg_path]) == 1
        assert f"unknown config key loss.{key}" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("cell", ["nan", "1e400", "-inf"])
def test_train_refuses_non_finite_dataset_cell(tmp_path, capsys, cell):
    cfg_path = _linreg_files(tmp_path)
    data = tmp_path / "linreg.csv"
    rows = data.read_text().splitlines()
    rows[3] = ",".join(rows[3].split(",")[:-1] + [cell])
    data.write_text("\n".join(rows) + "\n")
    assert run_cli(["train", "--config", cfg_path]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("n_steps", [0, 1, 2])
def test_model_json_replays_the_trained_pipeline(tmp_path, monkeypatch, n_steps):
    # one conv1d block per diffusion step, none for the identity layer
    runs, real = [], train.train_supervised
    monkeypatch.setattr(train, "train_supervised",
                        lambda *a: runs.append((a[0], real(*a))) or runs[-1][1])
    cfg = _diffusion_train_config(tmp_path)
    cfg["train"]["pipeline"] = [{"kind": "diffusion", "n_steps": n_steps},
                                {"kind": "dense", "in": 5, "out": 5, "activation": "sigmoid"}]
    cfg["loss"]["target_loss"] = 0.0       # two epochs move theta off its start; exit 3
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(["train", "--config", write_config(tmp_path, cfg)]) == 3
    model, report = runs[0]
    assert report.epochs == 2
    saved = json.loads((tmp_path / "fit" / "model.json").read_text())["blocks"]
    assert [b["kind"] for b in saved] == ["conv1d"] * n_steps + ["dense"]
    for x in np.eye(5)[:2]:
        out = x
        for block in map(block_from_dict, saved):
            out = block.forward(out)
        np.testing.assert_array_equal(out, model.forward(report.final_theta, x))


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


def test_gray_scott_rejects_initial_data(tmp_path, capsys):
    out = tmp_path / "gs"
    cfg = _gray_scott_config(out)
    cfg["run"]["initial"] = {"kind": "uniform", "value": 1.0}
    assert run_cli(["solve", "--config", write_config(tmp_path, cfg)]) == 1
    assert "run.initial" in capsys.readouterr().err
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


def test_readme_solve_config_runs_end_to_end(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.json"
    path.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", path, "--out", out]) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 801


def test_verify_takes_no_config_flag(tmp_path):
    assert run_cli(["verify", "stencils", "--config", tmp_path / "x.json"]) == 1


# --- every key is read or refused ---------------------------------------------

def _set(path, value):
    """A config mutation that sets the key at ``path`` (keys and list indices)."""
    def mutate(cfg, tmp_path):
        section = cfg
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = value
    return mutate


def _dotted(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


def _fisher_config(out_dir):
    return {
        "grid": {"n_points": 12, "h": 0.5, "k": 0.05, "bc": "dirichlet", "bc_value": 0.0},
        "model": {"kind": "fisher", "A": 1.0, "r": 0.8},
        "run": {"n_steps": 4, "seed": 5,
                "initial": {"kind": "random", "low": 0.0, "high": 1.0}},
        "io": {"out_dir": str(out_dir)},
    }


def _diffusion_train_config(tmp_path):
    data = tmp_path / "diffusion.csv"
    data.write_text("1,0,0,0,0,0.5,0.25,0,0,0.25\n0,1,0,0,0,0.25,0.5,0.25,0,0\n")
    return {
        "grid": {"n_points": 5, "h": 1.0, "k": 0.25, "bc": "periodic"},
        "train": {"dataset": str(data), "max_epochs": 2,
                  "pipeline": [{"kind": "diffusion", "n_steps": 1}]},
        "loss": {"target_loss": 1e300},
        "io": {"out_dir": str(tmp_path / "fit")},
    }


def _valid_configs(tmp_path):
    """One valid config per command and run kind, with the out dir each writes."""
    linreg = json.loads(_linreg_files(tmp_path).read_text())
    blocks_out = tmp_path / "blocks"
    grid1d = {"n_points": 6, "h": 1.0, "k": 0.25, "bc": "dirichlet", "bc_value": 0.0}
    return {
        "heat": ("solve", frozen_heat_config(tmp_path / "out")),
        "fisher": ("solve", _fisher_config(tmp_path / "out")),
        "gray_scott": ("solve", _gray_scott_config(tmp_path / "out")),
        "train-dense": ("train", linreg),
        "train-diffusion": ("train", _diffusion_train_config(tmp_path)),
        "gen-conv1d": ("gen-block", {
            "grid": grid1d, "model": {"kind": "heat", "A": 1.0},
            "block": {"kind": "conv1d"}, "io": {"out_dir": str(blocks_out)}}),
        "gen-conv2d": ("gen-block", {
            "grid": dict(_GRID_2D), "block": {"kind": "conv2d", "D": 1.0},
            "io": {"out_dir": str(blocks_out)}}),
        "gen-dense": ("gen-block", {
            "block": {"kind": "dense", "W": [[1.0, 2.0]], "bias": [0.5],
                      "activation": "sigmoid", "rate": 2.0},
            "io": {"out_dir": str(blocks_out)}}),
    }


VALID_CONFIG_NAMES = ["heat", "fisher", "gray_scott", "train-dense", "train-diffusion",
                      "gen-conv1d", "gen-conv2d", "gen-dense"]


@pytest.mark.parametrize("name", VALID_CONFIG_NAMES)
def test_valid_configs_run(tmp_path, name):
    command, cfg = _valid_configs(tmp_path)[name]
    assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 0
    assert Path(cfg["io"]["out_dir"]).exists()


@pytest.mark.parametrize("name,status", [("heat", 0), ("train-dense", 0), ("gen-conv1d", 1)])
def test_only_solve_and_train_take_seed(tmp_path, capsys, name, status):
    command, cfg = _valid_configs(tmp_path)[name]
    path = write_config(tmp_path, cfg)
    assert run_cli([command, "--config", path, "--seed", 3]) == status
    assert Path(cfg["io"]["out_dir"]).exists() == (status == 0)
    if status:
        # refused exactly as any other flag the command does not define
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert run_cli([command, "--config", path, "--bogus", 3]) == 1
        assert not Path(cfg["io"]["out_dir"]).exists()


@pytest.mark.parametrize("name,path,key,value", [
    ("heat", ("model",), "r", 0.5),
    ("fisher", ("model",), "reaction", {"kind": "fisher", "rate": 1.0}),
    ("gray_scott", ("model",), "A", 1.0),
    ("heat", (), "block", {"kind": "conv1d"}),
    ("train-dense", ("io",), "formats", ["csv"]),
    ("train-diffusion", ("train", "pipeline", 0), "activation", "sigmoid"),
    # a periodic boundary has no value, and a 1D run has no frames or 2D stencil
    ("heat", ("grid",), "bc_value", 0.0),
    ("heat", ("run",), "frame_stride", 2),
    ("heat", ("run",), "stencil2d", "9pt"),
    # each optimizer kind reads only the settings its step uses
    ("train-dense", ("optimizer",), "memory", 5),
    ("train-dense", ("optimizer",), "beta1", 0.9),
    # an activation of kind none has no rate
    ("train-dense", ("train", "pipeline", 0), "rate", 2.0),
    ("train-dense", (), "model", {"kind": "heat", "A": 1.0}),
    ("gen-dense", (), "grid", {"n_points": 5, "h": 1.0, "k": 0.1, "bc": "periodic"}),
    # a conv2d block steps any leading channel axis; it has no channel count
    ("gen-conv2d", ("block",), "channels", 1),
])
def test_key_the_run_does_not_read_is_rejected(tmp_path, capsys, name, path, key, value):
    command, cfg = _valid_configs(tmp_path)[name]
    _set(path + (key,), value)(cfg, tmp_path)
    assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 1
    assert f"unknown config key {_dotted(path + (key,))}" in capsys.readouterr().err
    assert not Path(cfg["io"]["out_dir"]).exists()


def _object_paths(node, path=()):
    """The key path of every JSON object in a config, the top level included."""
    if isinstance(node, dict):
        yield path
        for key, item in node.items():
            yield from _object_paths(item, path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _object_paths(item, path + (i,))


@pytest.mark.parametrize("name", VALID_CONFIG_NAMES)
@settings(max_examples=20)
@given(data=st.data())
def test_unknown_key_at_any_depth_is_rejected(tmp_path_factory, name, data):
    tmp_path = tmp_path_factory.mktemp(name)
    command, cfg = _valid_configs(tmp_path)[name]
    path = data.draw(st.sampled_from(list(_object_paths(cfg))))
    # no key the parsers read starts with "x_"
    key = "x_" + data.draw(st.text("abcdefghijklmnopqrstuvwxyz_", max_size=6))
    value = data.draw(st.sampled_from([0, 1.5, "on", None, [1], {"a": 1}]))
    _set(path + (key,), value)(cfg, tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 1
    assert f"unknown config key {_dotted(path + (key,))}" in err.getvalue()
    assert not Path(cfg["io"]["out_dir"]).exists()


def test_overrides_still_read_the_config_value(tmp_path, monkeypatch, capsys):
    cfg = frozen_heat_config(tmp_path / "from_config")
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path, "--out", tmp_path / "flag"]) == 0
    assert run_cli(["solve", "--config", path, "--seed", 3]) == 0
    monkeypatch.setenv("NPDE_OUT", str(tmp_path / "env"))
    assert run_cli(["solve", "--config", path]) == 0
    assert all((tmp_path / d / "trajectory.csv").exists()
               for d in ("flag", "env", "from_config"))
    capsys.readouterr()
    # the overridden keys are still type-checked
    cfg["io"]["out_dir"] = 5
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path, "--out", tmp_path / "flag2"]) == 1
    assert "config key io.out_dir" in capsys.readouterr().err
    cfg["io"]["out_dir"] = str(tmp_path / "ok")
    cfg["run"]["seed"] = 2.5
    path = write_config(tmp_path, cfg)
    assert run_cli(["solve", "--config", path, "--seed", 3]) == 1
    assert "config key run.seed" in capsys.readouterr().err
    assert not (tmp_path / "flag2").exists() and not (tmp_path / "ok").exists()


# --- malformed values are config errors, and nothing is written -----------------

def _underdetermined(cfg, tmp_path):
    # 3 parameters (W is 1x3, plus a bias) against 2 residuals
    (tmp_path / "two_rows.csv").write_text("1,0,0,1\n0,1,0,-2\n")
    cfg["train"]["dataset"] = str(tmp_path / "two_rows.csv")


_GRID_2D = {"n_points": 6, "h": 1.0, "k": 0.1, "bc": "periodic", "ndim": 2}


def _conv2d(**block):
    def mutate(cfg, tmp_path):
        del cfg["model"]
        cfg["grid"] = dict(_GRID_2D)
        cfg["block"] = {"kind": "conv2d", "D": 1.0, **block}
    return mutate


@pytest.mark.parametrize("name,mutate", [
    ("heat", lambda cfg, tmp: (cfg["run"].update(scheme="implicit"),
                               cfg["model"].update(B=0.5))),
    ("heat", lambda cfg, tmp: (cfg["grid"].update(ndim=2, n_points=4),
                               cfg["run"].update(scheme="implicit",
                                                 initial={"kind": "uniform", "value": 1.0}))),
    ("train-dense", _set(("optimizer",), {"kind": "lbfgs", "memory": 0})),
    ("train-dense", _set(("optimizer",), {"kind": "sgd", "eta": -1})),
    ("train-dense", _set(("optimizer",), {"kind": "adam", "beta1": 1.5})),
    ("train-dense", _set(("train", "max_epochs"), -1)),
    ("train-dense", _underdetermined),
    ("gen-conv1d", _set(("grid",), _GRID_2D)),
    ("gen-dense", _set(("block", "bias"), [0.0, 1.0])),
    ("gen-conv1d", _conv2d(stencil="7pt")),
    ("gen-dense", _set(("block", "activation"), "relu")),
], ids=["implicit-with-B", "implicit-2d", "lbfgs-memory-0", "sgd-negative-eta",
        "adam-beta1-1.5", "negative-max-epochs", "gauss-newton-underdetermined",
        "conv1d-on-2d-grid", "dense-bias-mismatch",
        "stencil-7pt", "relu-activation"])
def test_value_the_library_refuses_is_a_config_error(tmp_path, capsys, name, mutate):
    command, cfg = _valid_configs(tmp_path)[name]
    mutate(cfg, tmp_path)
    assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not Path(cfg["io"]["out_dir"]).exists()


@pytest.mark.parametrize("name,path", [
    ("heat", ("grid", "n_points")),
    ("heat", ("grid", "ndim")),
    ("heat", ("run", "n_steps")),
    ("gray_scott", ("run", "frame_stride")),
    ("heat", ("run", "seed")),
    ("train-dense", ("train", "max_epochs")),
    ("train-dense", ("optimizer", "memory")),
    ("train-dense", ("train", "pipeline", 0, "in")),
    ("train-dense", ("train", "pipeline", 0, "out")),
    ("train-diffusion", ("train", "pipeline", 0, "n_steps")),
])
@pytest.mark.parametrize("bad", [2.7, "ten"])
def test_integer_keys_refuse_other_values(tmp_path, capsys, name, path, bad):
    command, cfg = _valid_configs(tmp_path)[name]
    if path[0] == "optimizer":
        cfg["optimizer"] = {"kind": "lbfgs"}
    _set(path, bad)(cfg, tmp_path)
    assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 1
    assert f"config key {_dotted(path)} must be an integer" in capsys.readouterr().err
    assert not Path(cfg["io"]["out_dir"]).exists()


def test_formats_must_be_a_list(tmp_path, capsys):
    cfg = frozen_heat_config(tmp_path / "out")
    cfg["io"]["formats"] = "csv"
    assert run_cli(["solve", "--config", write_config(tmp_path, cfg)]) == 1
    assert "io.formats must be a list" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_numeric_dataset_cell_names_file_and_line(tmp_path, capsys):
    cfg_path = _linreg_files(tmp_path)
    data = tmp_path / "linreg.csv"
    rows = data.read_text().splitlines()
    rows[2] = rows[2].replace(",", ",x", 1)
    data.write_text("\n".join(rows) + "\n")
    assert run_cli(["train", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "linreg.csv line 3" in err
    assert not (tmp_path / "fit").exists()
