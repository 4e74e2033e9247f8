"""tools/artifact_set.py: the command set and the tree one command leaves."""

import filecmp
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_set.py"
_spec = importlib.util.spec_from_file_location("artifact_set", TOOL)
artifact_set = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_set)

SMALL = ["levelcurves", "--gamma", "1.5", "--levels", "1", "--tau=-1,1,5", "--format", "csv"]


def test_command_set():
    names = [name for name, _, _ in artifact_set.COMMANDS]
    assert len(names) == 22 and len(set(names)) == 22
    assert "reconstruct_masked_g1.5_h64" in names
    anchored = [args for name, args, config in artifact_set.COMMANDS if config is not None]
    assert [args[0] for args in anchored] == ["verify", "levelcurves", "reconstruct"]


def test_one_command_tree_is_reproducible(tmp_path):
    for side in ("a", "b"):
        assert artifact_set.run_command(tmp_path / side, "small", SMALL, None) == 0
    tree = tmp_path / "a" / "small"
    assert (tree / "status.txt").read_text() == "0\n"
    assert (tree / "stdout.txt").read_text() == "out/level_1.csv\n"
    assert (tree / "stderr.txt").read_bytes() == b""
    assert (tree / "out" / "level_1.csv").read_text().startswith("tau,")
    same = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert not (same.left_only or same.right_only or same.diff_files)
    assert not same.subdirs["small"].diff_files
    assert not same.subdirs["small"].subdirs["out"].diff_files


def test_failing_command_keeps_status_and_stderr(tmp_path):
    args = ["verify", "thm1", "--config", artifact_set.CONFIG_NAME]
    status = artifact_set.run_command(tmp_path, "bad", args, "[verify]\nn_tau = 0\n")
    assert status == 2
    assert (tmp_path / "bad" / "status.txt").read_text() == "2\n"
    assert "n_tau" in (tmp_path / "bad" / "stderr.txt").read_text()


def test_refuses_non_empty_out_dir(tmp_path):
    (tmp_path / "old.txt").write_text("x")
    with pytest.raises(SystemExit):
        artifact_set.main([str(tmp_path)])


def test_compare_trees(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    files = {
        "same.txt": ("x,1.5\n", "x,1.5\n"),
        "out/numbers.csv": ("tau,u\n-1,2.5e-3\n0,1\n", "tau,u\n-1,2.5000000000000001e-3\n0,1.5\n"),
        "out/text.json": ('{"verdict": "PASS", "n": 3}\n', '{"verdict": "FAIL", "n": 3}\n'),
        "only_a.txt": ("1\n", None),
    }
    for name, (text_a, text_b) in files.items():
        for root, text in ((a, text_a), (b, text_b)):
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text)
    assert artifact_set.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only_a.txt: only in {a}",
        "out/numbers.csv: numbers differ, max abs 0.5, max rel 0.333",
        "out/text.json: text differs",
        "3 of 4 files differ",
    ]
    assert artifact_set.main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 of 4 files differ\n"
