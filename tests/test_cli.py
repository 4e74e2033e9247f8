"""CLI commands: artifacts, exit codes, determinism, config handling."""

import argparse
import importlib
import itertools
import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mingraphs import verify
from mingraphs.cli import FLAGS, build_parser, main
from mingraphs.config import PAIR_KEYS, build_pair, load_config, parse_map_expr
from mingraphs.errors import ParameterError
from oracles import field_from_grid_text


README = (Path(__file__).parents[1] / "README.md").read_text()


def run(*argv) -> int:
    return main(list(argv))


def readme_table(header: str) -> dict[str, list[str]]:
    """The README table whose header row starts with ``header``: the first
    word of each row's first cell -> the words of its second, backticks
    dropped."""
    lines = README.splitlines()
    start = next(n for n, line in enumerate(lines) if line.startswith(header))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.replace("`", "").split() for cell in line.strip("|").split("|")]
        rows[cells[0][0]] = cells[1]
    return rows


class TestConfig:
    def test_parse_map_expr_power(self):
        amap = parse_map_expr("power-affine offset=1 exponent=1.5")
        assert amap.jet(1.0 + 0j).v == pytest.approx(2.0**1.5)

    def test_parse_map_expr_sum(self):
        amap = parse_map_expr("power-affine offset=1 exponent=2 coeff=0.5 + affine slope=-5")
        assert amap.jet(1.0 + 0j).d1 == pytest.approx(-3.0)  # (zeta+1) - 5 at zeta=1

    def test_parse_map_expr_errors(self):
        with pytest.raises(ParameterError):
            parse_map_expr("mystery kind=1")
        with pytest.raises(ParameterError):
            parse_map_expr("affine slope")

    def test_build_custom_pair(self):
        spec = {
            "kind": "custom",
            "k0": "2",
            "h": "power-affine offset=1 exponent=1.5",
            "g": "power-affine offset=1 exponent=0.5 coeff=-1.3333333333333333",
        }
        pair = build_pair(spec)
        assert pair.k == 1.0
        assert pair.h.jet(0j).d1 == pytest.approx(1.5)

    def test_build_custom_pair_with_anchor(self):
        spec = {
            "kind": "custom",
            "k0": "2",
            "h": "power-affine offset=1 exponent=1.5",
            "g_anchor": "0j:-1.3333333333333333",
        }
        pair = build_pair(spec)
        assert pair.g is None and pair.g_anchor[0] == 0j

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[pair]\nkind = planar\na = 2\nk0 = 2\n")
        assert load_config(path) == {"kind": "planar", "a": "2", "k0": "2"}
        path.write_text("; no [pair]: lw at its default gamma\n")
        assert load_config(path) == {}
        assert build_pair({}).label == build_pair({"kind": "lw", "gamma": "1.5"}).label

    def test_readme_config_examples_load(self, tmp_path):
        blocks = [block.split("```", 1)[0] for block in README.split("```ini\n")[1:]]
        assert len(blocks) == 3
        for n, block in enumerate(blocks):
            path = tmp_path / f"example{n}.ini"
            path.write_text(block)
            build_pair(load_config(path))

    def test_readme_matches_parser(self):
        # The README's per-command flag table lists what each subparser takes,
        # and its [pair] table lists PAIR_KEYS, so the docs cannot drift.
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        taken = {
            name: sorted(flag for action in sub._actions for flag in action.option_strings
                         if flag not in ("-h", "--help"))
            for name, sub in commands.items()
        }
        documented = readme_table("| command | flags |")
        assert {name: sorted(flags) for name, flags in documented.items()} == taken
        pair_keys = readme_table("| kind | keys |")
        assert pair_keys == {kind: list(keys) for kind, keys in PAIR_KEYS.items()}
        # ... and its defaults sentence lists each run setting's default from FLAGS.
        sentence = README.split("The defaults are ", 1)[1].split("`.", 1)[0] + "`"
        defaults = dict(re.findall(r"`(--[a-z]+)[ =]([^`]+)`", sentence))
        assert defaults == {flag: default for flag, (default, _, _) in FLAGS.items()}

    def test_readme_matches_constants(self):
        # The tolerance table gives each tolerance's value in code, and every
        # constant the sample-set table names exists.
        tolerances = readme_table("| Constant | Value | Check |")
        assert set(tolerances) == {
            "verify.THM1_TOL", "verify.LEMMA2_FAMILY_TOL", "verify.POISSON_VALUE_TOL",
            "verify.POISSON_AGREEMENT_TOL", "verify.SCALING_TOL", "verify.DISK_TOL",
            "verify.MSR_EXACT_TOL",
        }
        for constant, (value, *_) in tolerances.items():
            module, name = constant.split(".")
            assert getattr(importlib.import_module(f"mingraphs.{module}"), name) == float(value)
        table = README.split("| Constant | Samples | Checks |\n", 1)[1].splitlines()[1:]
        rows = itertools.takewhile(lambda line: line.startswith("|"), table)
        named = re.findall(r"`verify\.(\w+)`", "".join(row.split("|")[1] for row in rows))
        assert "PSI_SAMPLES" in named and "SAMPLE_GRID" in named
        for name in named:
            assert hasattr(verify, name), name

    def test_flag_defaults_parse_to_the_run_defaults(self):
        # The values the run settings took before their defaults became flag text.
        values = {flag: parse(default, flag) for flag, (default, parse, _) in FLAGS.items()}
        assert values == {
            "--levels": (0.0, 1.0, 2.0),
            "--tau": (-20.0, 20.0, 401),
            "--grid": (0.5, 3.0, -2.0, 2.0, 1.0 / 32.0),
            "--out": "out",
            "--format": ("csv",),
            "--gammas": tuple(round(1.1 + 0.1 * i, 10) for i in range(9)),
        }
        assert type(values["--tau"][2]) is int

    def test_missing_config_file(self):
        with pytest.raises(ParameterError):
            load_config("/nonexistent/run.ini")


class TestLevelcurvesCommand:
    def test_writes_per_level_files(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run("levelcurves", "--gamma", "1.5", "--levels", "0,1,2",
                     "--out", str(out), "--format", "csv,json,svg",
                     "--tau=-5,5,41")
        assert status == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "level_0.csv", "level_0.json", "level_1.csv", "level_1.json",
            "level_2.csv", "level_2.json", "levelcurves.svg",
        ]
        header = (out / "level_2.csv").read_text().split("\n", 1)[0]
        assert header == "tau,x,y,x_tau,y_tau,x_tautau,y_tautau,phi,s,kappa,kappa1"

    def test_boundary_level_is_boundary_curve(self, tmp_path):
        out = tmp_path / "out"
        assert run("levelcurves", "--gamma", "1.5", "--levels", "0",
                   "--out", str(out), "--format", "json", "--tau=-2,2,9") == 0
        rows = json.loads((out / "level_0.json").read_text())
        # level 0 passes through f(0) = (-1/3, 0)
        mid = rows[4]
        assert mid["tau"] == 0.0
        assert mid["x"] == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_center_row_curvature(self, tmp_path):
        out = tmp_path / "out"
        assert run("levelcurves", "--gamma", "1.5", "--levels", "2",
                   "--out", str(out), "--format", "json", "--tau=-10,10,21") == 0
        rows = json.loads((out / "level_2.json").read_text())
        center = rows[10]
        assert center["kappa"] == pytest.approx(0.09642365197998379, rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("levelcurves", "--gamma", "1.3", "--levels", "1,2",
                       "--out", str(out), "--format", "csv,json,svg",
                       "--tau=-4,4,33") == 0
        for name in ("level_1.csv", "level_2.json", "levelcurves.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_failure_removes_partial_outputs(self, tmp_path):
        out = tmp_path / "out"
        # gamma out of range trips during pair construction -> config error
        status = run("levelcurves", "--gamma", "2.5", "--out", str(out))
        assert status != 0
        assert not out.exists() or not list(out.iterdir())


class TestVerifyCommand:
    def test_all_checks_pass_for_family(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run("verify", "all", "--gamma", "1.5", "--out", str(out),
                     "--grid", "0.5,3,-2,2,0.0625")
        assert status == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 8 and "FAIL" not in stdout
        reports = sorted(p.name for p in out.iterdir())
        assert len(reports) == 8
        parsed = json.loads((out / "verify_concavity_propagation.json").read_text())
        assert list(parsed.keys())[0] == "check_name"
        assert parsed["passed"] is True

    def test_planar_thm2_designed_failure(self, tmp_path, capsys):
        config = tmp_path / "planar.ini"
        config.write_text("[pair]\nkind = planar\na = 2\nk0 = 2\n")
        out = tmp_path / "out"
        status = run("verify", "thm2", "--config", str(config), "--out", str(out))
        assert status == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "concavity_propagation" in captured.err
        parsed = json.loads((out / "verify_concavity_propagation.json").read_text())
        assert parsed["passed"] is False and "planar" in parsed["notes"]

    def test_single_check_scaling(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run("verify", "scaling", "--gamma", "1.5", "--out", str(out))
        assert status == 0
        parsed = json.loads((out / "verify_scaling_law.json").read_text())
        assert parsed["passed"] is True
        assert parsed["empirical_constant"] <= 1e-10

    def test_report_tolerances_are_the_module_constants(self, tmp_path):
        from mingraphs import verify

        fixed = {  # report -> (its module constant, the value it must keep)
            "curvature_bound": (verify.THM1_TOL, 1e-9),
            "log_derivative_bound": (verify.LEMMA2_FAMILY_TOL, 1e-12),
            "concavity_propagation": (0.0, 0.0),
            "poisson_boundary_reconstruction": (verify.POISSON_VALUE_TOL, 1e-4),
            "scaling_law": (verify.SCALING_TOL, 1e-10),
            "disk_transfer": (verify.DISK_TOL, 1e-9),
            "superharmonicity": (0.0, 0.0),
            "msr_residual": (verify.MSR_EXACT_TOL, 1e-10),
        }
        assert verify.POISSON_AGREEMENT_TOL == 2e-4
        out = tmp_path / "out"
        assert run("verify", "all", "--gamma", "1.5", "--out", str(out),
                   "--grid", "0.5,3,-2,2,0.0625") == 0
        for name, (constant, value) in fixed.items():
            report = json.loads((out / f"verify_{name}.json").read_text())
            assert report["tolerance"] == constant == value, name
        assert len(list(out.iterdir())) == len(fixed)

    @pytest.mark.parametrize("check, spacings", [
        ("all", [0.0625, 0.03125]), ("superharmonic", [0.0625]), ("msr", [0.0625, 0.03125]),
        ("thm1", []),
    ], ids=["all", "superharmonic", "msr", "thm1"])
    def test_one_coarse_field_per_command(self, tmp_path, monkeypatch, check, spacings):
        # superharmonic and msr share the field at h; msr refines it to h/2
        from mingraphs import graphfield

        reconstruct, seen, fields = graphfield.reconstruct_u, [], []
        cloud_seeds, seeded = graphfield._cloud_seeds, []
        newton, lattices = graphfield._newton_batch, []

        def spy(pair, window, spacing, coarse=None):
            seen.append((spacing, coarse))
            fields.append(reconstruct(pair, window, spacing, coarse))
            return fields[-1]

        def seeds(cloud, targets):
            seeded.append(cloud_seeds(cloud, targets))
            return seeded[-1]

        def counting(pair, targets, guesses):
            if seeded and guesses is seeded[-1]:  # a batch seeded wholly from the cloud
                lattices.append(targets.size)
            return newton(pair, targets, guesses)

        monkeypatch.setattr(graphfield, "reconstruct_u", spy)
        monkeypatch.setattr(graphfield, "_cloud_seeds", seeds)
        monkeypatch.setattr(graphfield, "_newton_batch", counting)
        assert run("verify", check, "--gamma", "1.5", "--out", str(tmp_path / "out"),
                   "--grid", "0.5,3,-2,2,0.0625") == 0
        assert [spacing for spacing, _ in seen] == spacings
        # the h/2 call is handed the very field that the h call returned, so
        # only the h field solves a coarsest lattice from cloud seeds: every
        # 64th row and column of 41 x 65 nodes, 1 x 2 of them
        assert [coarse for _, coarse in seen] == [None, *fields][:len(spacings)]
        assert lattices == [2] * min(len(spacings), 1)

    def test_sample_grid_cannot_be_shrunk(self, tmp_path, capsys):
        # the fixed grid finds the non-concave boundary; a [verify] section that
        # sampled six points away from it once turned all eight checks into PASS
        config = tmp_path / "non_concave.ini"
        config.write_text(NON_CONCAVE_CONFIG)
        # a coarse window: anchored g makes the grid checks costly, and they
        # sample the (x, y) plane, not the sample grid
        assert run("verify", "all", "--config", str(config), "--out", str(tmp_path / "a"),
                   "--grid=0.5,1.5,-0.5,0.5,0.25") == 1
        captured = capsys.readouterr()
        assert "FAIL concavity_propagation: (c) boundary Re h''/h' < 0 at tau=-4" in captured.out
        assert captured.err == "first failing check: concavity_propagation\n"

        config.write_text(NON_CONCAVE_CONFIG + SHRUNK_VERIFY_SECTION)
        out = tmp_path / "b"
        assert run("verify", "all", "--config", str(config), "--out", str(out)) == 2
        assert "unknown config section [verify]" in one_line_error(capsys)
        assert not out.exists()

    def test_report_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("verify", "lemma2", "--gamma", "1.7", "--out", str(out)) == 0
            outs.append((out / "verify_log_derivative_bound.json").read_bytes())
        assert outs[0] == outs[1]


class TestSweepCommand:
    def test_three_gammas(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run("sweep-gamma", "--gammas", "1.1,1.5,1.9", "--out", str(out))
        assert status == 0
        lines = (out / "sweep_gamma.csv").read_text().strip().split("\n")
        assert lines[0].startswith("gamma,A_emp,K_emp,min_kappa,angle_plus,angle_minus")
        assert len(lines) == 4
        row15 = lines[2].split(",")
        assert float(row15[0]) == 1.5
        assert float(row15[4]) == pytest.approx(3 * np.pi / 4, abs=1e-6)
        assert row15[6:9] == ["1", "1", "1"]

    def test_empty_gamma_list(self, tmp_path, capsys):
        # refused: neither spelling may sweep the default gammas or none at all
        out = tmp_path / "out"
        for gammas in ("", ","):
            assert run("sweep-gamma", f"--gammas={gammas}", "--out", str(out)) == 2
            err = one_line_error(capsys)
            assert f"--gammas takes a comma list of numbers, got {gammas!r}" in err
            assert not out.exists()

    def test_nonfinite_gamma_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep-gamma", "--gammas", "1.5,nan", "--out", str(out)) == 2
        assert "finite" in one_line_error(capsys)
        assert not out.exists()

    def test_nonfinite_gamma_config(self, tmp_path, capsys):
        # sweep-gamma builds its pairs from --gammas alone: --config is refused
        # before anything runs, so no config can carry a sweep
        config = tmp_path / "sweep.ini"
        config.write_text("[sweep]\ngammas = 1.5, inf\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            run("sweep-gamma", "--config", str(config), "--out", str(out))
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in one_line_error(capsys)
        assert not out.exists()

    def test_bad_gamma_recorded_and_nonzero(self, tmp_path):
        out = tmp_path / "out"
        status = run("sweep-gamma", "--gammas", "1.5,2.5", "--out", str(out))
        assert status == 1
        lines = (out / "sweep_gamma.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[2].split(",")[-1] != ""  # error column populated


class TestReconstructCommand:
    def test_grid_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run("reconstruct", "--gamma", "1.5", "--out", str(out),
                     "--grid", "0.5,1.5,-0.5,0.5,0.125", "--format", "csv")
        assert status == 0
        field = field_from_grid_text((out / "field.grid").read_text())
        assert field.mask.all()
        assert np.all(field.values[field.mask] > 0.0)
        assert (out / "field.csv").read_text().startswith("x,y,u,mask")

    def test_outside_window_nonzero_exit(self, tmp_path, capsys):
        config = tmp_path / "planar.ini"
        config.write_text("[pair]\nkind = planar\na = 2\nk0 = 2\n")
        out = tmp_path / "out"
        status = run("reconstruct", "--config", str(config), "--out", str(out),
                     "--grid=-5,-3,0,1,0.5")
        assert status == 1
        assert "no seed" in capsys.readouterr().err


SIGN_FLIP_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\n"
    "h = power-affine offset=1 exponent=2 coeff=0.5 + affine slope=-11\ng_anchor = 1:0\n"
)

#: Re h''/h' < 0 on part of the boundary, so D is not concave.
NON_CONCAVE_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\n"
    "h = affine slope=2 + power-affine offset=1 exponent=0.6 coeff=-0.3\ng_anchor = 1:0\n"
)

#: The sample grid that a [verify] section could once set: six points away
#: from where NON_CONCAVE_CONFIG fails.
SHRUNK_VERIFY_SECTION = (
    "[verify]\nsigma_min = 1\nsigma_max = 2\nn_sigma = 2\ntau_abs = 0.5\nn_tau = 3\n"
)


ANCHOR_ZERO_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\nh = power-affine offset=1 exponent=1.5\n"
    "g_anchor = 0j:-1.3333333333333333\n"
)


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


#: (check, exponent of h = (zeta+1)**exponent) whose run meets an overflow.
OVERFLOWING = [
    *itertools.product(["lemma2", "thm1", "thm2", "poisson", "scaling", "disk",
                        "superharmonic", "msr", "all"], ["400", "1e300"]),
    ("reconstruct", "1e300"),
]


class TestMalformedInput:
    """Each malformed input exits 2 with one stderr line, never a traceback."""

    @pytest.mark.parametrize("grid", ["0.5,3,-2,2,0", "0.5,3,-2,2,-0.1", "0.5,3,-2,2,nan"])
    def test_bad_grid_spacing(self, tmp_path, capsys, grid):
        status = run("reconstruct", "--gamma", "1.5", "--out", str(tmp_path / "out"),
                     f"--grid={grid}")
        assert status == 2
        assert "spacing" in one_line_error(capsys)

    @pytest.mark.parametrize("grid, named", [
        # 2.5e15 x 4e15 nodes: refused before any array is allocated
        ("0.5,3,-2,2,1e-15", f"{(round(2.5e15) + 1) * (round(4e15) + 1)} nodes"),
        ("0.5,3,-2,2,1e-320", "too small"),
        ("0.5,inf,-2,2,0.1", "window range"),
    ], ids=["too-many-nodes", "subnormal-spacing", "infinite-window"])
    def test_grid_cannot_be_built(self, tmp_path, capsys, grid, named):
        status = run("reconstruct", "--gamma", "1.5", "--out", str(tmp_path / "out"),
                     f"--grid={grid}")
        assert status == 2
        assert named in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_too_many_level_samples(self, tmp_path, capsys):
        # 1e11 samples would need 745 GiB for tau alone: refused before any array exists
        status = run("levelcurves", "--gamma", "1.5", "--tau=-1,1,100000000000",
                     "--out", str(tmp_path / "out"))
        assert status == 2
        assert "100000000000 samples" in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_unknown_format(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run("levelcurves", "--gamma", "1.5", "--format=csv,pdf",
                     "--levels", "1", "--tau=-1,1,5", "--out", str(out))
        assert status == 2
        err = one_line_error(capsys)
        assert "--format" in err and "'pdf'" in err and "csv | json | svg" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json,svg", "json", "csv,json", ""])
    def test_reconstruct_takes_csv_only(self, tmp_path, capsys, fmt):
        # field.grid and field.csv are always written: any other name was ignored
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            run("reconstruct", "--grid=0.5,1.5,-0.5,0.5,0.25", f"--format={fmt}",
                "--out", str(out))
        assert excinfo.value.code == 2
        assert f"argument --format: invalid choice: {fmt!r}" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["levelcurves", "--levels="], "--levels takes a comma list of numbers, got ''"),
        (["levelcurves", "--levels=,"], "--levels takes a comma list of numbers, got ','"),
        (["levelcurves", "--format="], "--format takes a comma list of csv | json | svg, got ''"),
        (["levelcurves", "--format=,"], "--format takes a comma list of csv | json | svg, got ','"),
        (["levelcurves", "--tau="], "--tau takes min,max,n with n an integer, got ''"),
        (["reconstruct", "--grid="], "--grid takes x0,x1,y0,y1,h, got ''"),
        (["verify", "thm1", "--out="], "--out takes a directory, got ''"),
        (["levelcurves", "--config="], "--config takes a file, got ''"),
        (["verify", "thm1", "--config="], "--config takes a file, got ''"),
    ], ids=["levels", "levels-commas", "format", "format-commas",
            "tau", "grid", "out", "config", "config-verify"])
    def test_empty_flag_value(self, tmp_path, monkeypatch, capsys, argv, named):
        # Refused, not read as the default (for --out, the working directory's out/).
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        assert named in one_line_error(capsys)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, module, work", [
        (["levelcurves", "--levels", "1", "--tau=-1,1,5"], "levels", "sample_level_curve"),
        (["verify", "thm1"], "verify", "verify_thm1"),
        (["reconstruct", "--grid=0.5,1.5,-0.5,0.5,0.25"], "graphfield", "reconstruct_u"),
        (["sweep-gamma", "--gammas", "1.5"], "verify", "verify_lemma2"),
    ], ids=["levelcurves", "verify", "reconstruct", "sweep-gamma"])
    def test_unwritable_out(self, tmp_path, monkeypatch, capsys, argv, module, work):
        # A parent of --out is a regular file: one line naming --out, no
        # traceback, before the command's work runs, and nothing created.
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{work} ran before --out was refused")

        monkeypatch.setattr(importlib.import_module(f"mingraphs.{module}"), work, must_not_run)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        assert run(*argv, "--out", str(out)) == 2
        assert one_line_error(capsys) == f"error: cannot write into --out {out}: Not a directory\n"
        assert [path.name for path in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.parametrize("check", ["msr", "all"])
    def test_over_cap_fine_grid_refused_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                        check):
        # msr's h/2 grid is over graphfield.MAX_GRID_NODES (its h grid is not):
        # one line, before h is sampled or any node is inverted.
        from mingraphs import graphfield, verify

        def must_not_run(*args, **kwargs):
            raise AssertionError("work ran before the grid was refused")

        monkeypatch.setattr(graphfield, "reconstruct_u", must_not_run)
        monkeypatch.setattr(verify, "admit", must_not_run)
        assert run("verify", check, "--gamma", "1.5", "--out", str(tmp_path / "out"),
                   "--grid=0,1,0,1,0.0003") == 2
        assert one_line_error(capsys) == (
            "verify failed while evaluating: grid of 6668 x 6668 = 44462224 nodes "
            f"exceeds the limit of {graphfield.MAX_GRID_NODES}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("out, reason", [
        ("afile", "File exists"), ("afile/sub/deeper", "Not a directory"),
        ("locked/sub", "Permission denied"),
    ], ids=["file", "below-file", "no-permission"])
    def test_out_refused_with_the_reason_a_write_gives(self, tmp_path, monkeypatch, capsys,
                                                       out, reason):
        (tmp_path / "afile").write_text("")
        (tmp_path / "locked").mkdir()
        access = os.access
        # a directory without write permission, also when the tests run as root
        monkeypatch.setattr(os, "access", lambda path, mode: (
            Path(path).name != "locked" and access(path, mode)))
        monkeypatch.chdir(tmp_path)
        assert run("verify", "thm1", "--gamma", "2", "--out", out) == 2
        assert one_line_error(capsys) == f"error: cannot write into --out {out}: {reason}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "locked"]
        assert not list((tmp_path / "locked").iterdir())

    def test_unwritable_file_removes_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "level_1.json").mkdir(parents=True)  # level_1.csv is written first
        assert run("levelcurves", "--levels", "1", "--tau=-1,1,5", "--format", "csv,json",
                   "--out", str(out)) == 2
        assert f"cannot write into --out {out}: Is a directory" in one_line_error(capsys)
        assert [path.name for path in out.iterdir()] == ["level_1.json"]

    @pytest.mark.parametrize("argv, config_text, named", [
        (["levelcurves", "--tau=1,2"], None, "--tau takes min,max,n with n an integer, got '1,2'"),
        (["levelcurves", "--tau=1,2,2.5"], None, "--tau takes min,max,n with n an integer"),
        (["reconstruct", "--grid=0.5,3,-2"], None, "--grid takes x0,x1,y0,y1,h, got '0.5,3,-2'"),
        (["levelcurves", "--levels=1,x"], None, "--levels takes a comma list of numbers, got '1,x'"),
        (["sweep-gamma", "--gammas=1.2,x"], None, "--gammas takes a comma list of numbers"),
        (["levelcurves"], "[pair]\nkind = lw\ngamma = x\n", "[pair] gamma takes a number"),
        (["levelcurves"], "[pair]\nkind = planar\nk0 = 2j\n", "[pair] k0 takes a number"),
        (["levelcurves"], "[pair]\nkind = custom\nh = affine slope=x\ng_anchor = 1:0\n",
         "[pair] h: map parameter slope takes a complex number, got 'x'"),
        (["levelcurves"], "[pair]\nkind = custom\nh = affine\ng_anchor = 1\n",
         "[pair] g_anchor takes zeta:value"),
    ], ids=["tau-count", "tau-n-float", "grid-count", "levels-entry", "gammas-entry",
            "pair-gamma", "planar-k0", "custom-h", "g-anchor"])
    def test_malformed_value_names_its_source(self, tmp_path, capsys, argv, config_text, named):
        if config_text is not None:
            config = tmp_path / "run.ini"
            config.write_text(config_text)
            argv = [*argv, "--config", str(config)]
        status = run(*argv, "--out", str(tmp_path / "out"))
        assert status == 2
        assert named in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config_text, named", [
        ("h = power-affine offset=1 exponent=inf\ng_anchor = 1:0\n", "power-affine exponent"),
        ("h = power-affine offset=nan exponent=1.5\ng_anchor = 1:0\n", "power-affine offset"),
        ("h = affine slope=inf\ng_anchor = 1:0\n", "affine slope"),
    ], ids=["exponent-inf", "offset-nan", "affine-slope-inf"])
    @pytest.mark.parametrize("command", ["levelcurves", "reconstruct"])
    def test_nonfinite_map_constant(self, tmp_path, capsys, config_text, named, command):
        config = tmp_path / "run.ini"
        config.write_text("[pair]\nkind = custom\nk0 = 2\n" + config_text)
        status = run(command, "--config", str(config), "--out", str(tmp_path / "out"))
        assert status == 2
        assert named in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_overflowing_tau_window(self, tmp_path, capsys, fmt):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            status = run("levelcurves", "--gamma", "1.5", "--tau=-1e300,1e300,5",
                         "--out", str(out), "--format", fmt)
        assert status == 2
        assert "tau window [-1e+300, 1e+300]" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["-2,inf,5", "-inf,inf,5", "nan,1,5"])
    def test_infinite_tau_window(self, tmp_path, capsys, tau):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            status = run("levelcurves", "--gamma", "1.5", f"--tau={tau}", "--out", str(out))
        assert status == 2
        assert "must be finite, min below max" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "bogus"],
        ["verify", "thm1", "--frob"],
        ["verify", "msr", "--gamma", "1.995", "--tol", "msr_exact=1e-9"],
    ], ids=["unknown-check", "unknown-flag", "removed-tol-flag"])
    def test_bad_command_line(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, "--out", str(tmp_path / "out"))
        assert excinfo.value.code == 2
        assert "error: " in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["levelcurves", "--levels", "1", "--tau=-1,1,5", "--grid=0.5,1.5,-0.5,0.5,0.25"],
         "--grid"),
        (["verify", "thm1", "--levels", "1"], "--levels"),
        (["verify", "thm1", "--format", "svg"], "--format"),
        (["verify", "thm1", "--tau=5,1,0"], "--tau"),
        (["sweep-gamma", "--gamma", "1.7", "--gammas", "1.3"], "--gamma"),
        (["sweep-gamma", "--gammas", "1.3", "--levels", "1"], "--levels"),
        (["sweep-gamma", "--gammas", "1.3", "--format", "csv"], "--format"),
        (["sweep-gamma", "--gammas", "1.3", "--grid=9,1,1,0,-1"], "--grid"),
        (["sweep-gamma", "--gammas", "1.3", "--tau=5,1,0"], "--tau"),
        (["reconstruct", "--grid=0.5,1.5,-0.5,0.5,0.25", "--levels", "nan,-3"], "--levels"),
        (["reconstruct", "--grid=0.5,1.5,-0.5,0.5,0.25", "--tau=9,1,0"], "--tau"),
        (["verify", "all", "--gam", "1.5"], "--gam"),
    ], ids=["levelcurves-grid", "verify-levels", "verify-format", "verify-tau",
            "sweep-gamma", "sweep-levels", "sweep-format", "sweep-grid", "sweep-tau",
            "reconstruct-levels", "reconstruct-tau", "verify-abbreviation"])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, argv, flag):
        # Refused, not ignored, and not read as an abbreviation (--gamma of --gammas).
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, "--out", str(tmp_path / "out"))
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_dilatation_probe_overflow(self, tmp_path, capsys):
        # g'h' overflows to nan at every probe: the pair is refused at once,
        # without a numpy warning, instead of failing later on the tau window.
        config = tmp_path / "run.ini"
        config.write_text("[pair]\nkind = custom\nk0 = 2\n"
                          "h = power-affine offset=1 exponent=1e300\ng = affine slope=1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            status = run("levelcurves", "--config", str(config), "--levels", "1",
                         "--tau=-2,2,5", "--out", str(tmp_path / "out"))
        assert status == 2
        assert "closed-form g violates g'h' = -k" in one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, named", [
        ("kind = lw\ngamma = 1.5\n", ["no section headers"]),
        ("[pair]\nkind = lw\n\n[pair]\ngamma = 1.5\n", ["section 'pair' already exists"]),
        ("[pair]\nkind = lw\nmn = -5\nfd_step = 1e-4\n", ["[pair] mn", "[pair] fd_step"]),
        ("[pair]\nkind = lw\n\n[plot]\nwidth = 3\n", ["section [plot] (known: sections pair)"]),
        ("[pair]\nkind = lw\nk0 = 2\n", ["[pair] k0"]),
        ("[pair]\nkind = planar\ngamma = 1.5\n", ["[pair] gamma"]),
        ("[pair]\nkind = custom\nh = affine\ng = affine\ngamma = 1.5\n", ["[pair] gamma"]),
        ("[tolerances]\nmsr_exact = 1e-9\n", ["section [tolerances]"]),
        ("[scaling]\nfactors = 0.5, 2\n", ["section [scaling]"]),
        (SHRUNK_VERIFY_SECTION, ["section [verify]"]),
        # Run settings are flags: the file describes the pair alone.
        ("[levels]\nvalues = 1, x\n", ["section [levels]"]),
        ("[tau]\nn = x\n", ["section [tau]"]),
        ("[grid]\nspacing = x\n", ["section [grid]"]),
        ("[output]\nformats = csv, pdf\n", ["section [output]"]),
        ("[pair]\nkind = lw\n\n[sweep]\ngammas = 1.5 1.6\n", ["section [sweep]"]),
    ], ids=["no-section-header", "duplicate-section", "unknown-keys", "unknown-section",
            "lw-key", "planar-key", "custom-key", "removed-tolerances", "removed-scaling",
            "removed-verify", "removed-levels", "removed-tau", "removed-grid", "removed-output",
            "removed-sweep"])
    def test_bad_config_file(self, tmp_path, capsys, text, named):
        config = tmp_path / "run.ini"
        config.write_text(text)
        status = run("levelcurves", "--config", str(config), "--out", str(tmp_path / "out"))
        assert status == 2
        err = one_line_error(capsys)
        for entry in named:
            assert entry in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("check, exponent", OVERFLOWING, ids=map("-".join, OVERFLOWING))
    def test_overflowing_pair(self, tmp_path, capsys, exponent, check):
        # h' overflows on the sample points: one line naming the overflow, not
        # numpy warnings and a "critical point" that is not one.  The grid
        # checks too: the pair is refused before any field is reconstructed.
        # reconstruct: the march ignores the overflow, and anchored g refuses
        # h' (at exponent 400 the default window's nodes do not overflow).
        config = tmp_path / "run.ini"
        config.write_text("[pair]\nkind = custom\nk0 = 2\n"
                          f"h = power-affine offset=1 exponent={exponent}\ng_anchor = 1:0\n")
        argv, named = ["verify", check], "verify failed while evaluating: the pair"
        if check == "reconstruct":
            argv, named = [check], "reconstruct failed: |h'| is not finite: the representation"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            status = run(*argv, "--config", str(config), "--out", str(tmp_path / "out"))
        assert status == 2
        assert one_line_error(capsys).startswith(f"{named} overflows float64")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("constants, named", [
        ("k0 = 1e200\ng_anchor = 1:0\n", "k0 = 1e+200 makes k = k0**2/4 = inf, not in (0, inf)"),
        ("k0 = 1e-200\ng_anchor = 1:0\n", "k0 = 1e-200 makes k = k0**2/4 = 0.0, not in (0, inf)"),
        ("k0 = 2\ng_anchor = 1:inf\n", "g_anchor must be finite, got (1+0j):(inf+0j)"),
        ("k0 = 2\ng_anchor = nan:0\n", "g_anchor must be finite, got (nan+0j):0j"),
    ], ids=["k-overflows", "k-underflows", "anchor-value-inf", "anchor-point-nan"])
    @pytest.mark.parametrize("argv", [["verify", "thm1"], ["verify", "superharmonic"],
                                      ["levelcurves"], ["reconstruct"]],
                             ids=["thm1", "superharmonic", "levelcurves", "reconstruct"])
    def test_pair_constant_float64_cannot_carry(self, tmp_path, capsys, constants, named, argv):
        # Refused when the pair is built, naming the key, before anything is
        # evaluated: not a PASS on a chain bound of 0 or inf, numpy warnings,
        # rows of x = inf, or a later error that names no key.
        config = tmp_path / "run.ini"
        config.write_text("[pair]\nkind = custom\nh = power-affine offset=1 exponent=1.5\n"
                          + constants)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            status = run(*argv, "--config", str(config), "--out", str(tmp_path / "out"))
        assert status == 2
        assert one_line_error(capsys) == f"error: {named}\n"
        assert not (tmp_path / "out").exists()

    def test_critical_point_on_grid(self, tmp_path, capsys):
        # h' = zeta - 10 vanishes at zeta = 10, the sample grid's sigma = 10,
        # tau = 0; the grid checks name it too, before reconstructing a field
        config = tmp_path / "flip.ini"
        config.write_text(SIGN_FLIP_CONFIG)
        for check in ("lemma2", "superharmonic"):
            status = run("verify", check, "--config", str(config), "--out", str(tmp_path / "out"))
            assert status == 2
            assert "critical point" in one_line_error(capsys)

    def test_unsettled_quadrature(self, tmp_path, capsys):
        config = tmp_path / "near_singular.ini"
        config.write_text("[pair]\nkind = custom\nk0 = 2\n"
                          "h = power-affine offset=1e-12 exponent=1.5\ng_anchor = 0j:0j\n")
        status = run("levelcurves", "--config", str(config), "--levels", "1",
                     "--out", str(tmp_path / "out"), "--tau=-2,2,5")
        assert status == 2
        assert "Gauss-Legendre" in one_line_error(capsys)


def test_anchored_levelcurves_match_closed_form(tmp_path):
    config = tmp_path / "anchored.ini"
    config.write_text(ANCHOR_ZERO_CONFIG)
    common = ("--levels", "1", "--format", "json")
    assert run("levelcurves", "--config", str(config), "--out", str(tmp_path / "a"), *common) == 0
    assert run("levelcurves", "--gamma", "1.5", "--out", str(tmp_path / "c"), *common) == 0
    anchored = json.loads((tmp_path / "a" / "level_1.json").read_text())
    closed = json.loads((tmp_path / "c" / "level_1.json").read_text())
    assert len(anchored) == len(closed) == 401
    for got, want in zip(anchored, closed):
        assert got["x"] == pytest.approx(want["x"], abs=1e-9)
        assert got["y"] == pytest.approx(want["y"], abs=1e-9)


def test_anchored_reconstruct(tmp_path):
    config = tmp_path / "anchor-zero.ini"
    config.write_text(ANCHOR_ZERO_CONFIG)
    out = tmp_path / "out"
    assert run("reconstruct", "--config", str(config), "--out", str(out),
               "--grid=0.5,3,-2,2,0.125") == 0
    field = field_from_grid_text((out / "field.grid").read_text())
    assert field.mask.all()


def test_console_entry_help():
    with pytest.raises(SystemExit) as excinfo:
        run("--help")
    assert excinfo.value.code == 0
