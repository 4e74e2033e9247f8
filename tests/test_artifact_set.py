"""tools/artifact_set.py: the command set, the tree one command leaves, and
the committed digests of the whole set."""

import contextlib
import filecmp
import importlib.util
import io
from pathlib import Path

import pytest

from mingraphs.cli import main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_set.py"
_spec = importlib.util.spec_from_file_location("artifact_set", TOOL)
artifact_set = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_set)

SMALL = ["levelcurves", "--gamma", "1.5", "--levels", "1", "--tau=-1,1,5", "--format", "csv"]


def test_command_set():
    names = [name for name, _, _ in artifact_set.COMMANDS]
    assert len(names) == 28 and len(set(names)) == 28
    assert {"reconstruct_masked_g1.5_h64", "reconstruct_edge_g1.5_h32"} <= set(names)
    assert {args[0] for _, args, _ in artifact_set.COMMANDS} == {
        "reconstruct", "verify", "levelcurves", "sweep-gamma"}
    with_config = [(args[:2], config) for _, args, config in artifact_set.COMMANDS
                   if config is not None]
    anchored = artifact_set.ANCHOR_ZERO_CONFIG
    assert with_config == [
        (["verify", "all"], anchored), (["levelcurves", "--config"], anchored),
        (["reconstruct", "--config"], anchored), (["verify", "thm2"], artifact_set.PLANAR_CONFIG),
        (["verify", "superharmonic"], artifact_set.OVERFLOW_CONFIG),
        (["verify", "all"], artifact_set.NON_INJECTIVE_CONFIG),
        (["levelcurves", "--config"], artifact_set.SUM_MAP_CONFIG),
    ]


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
    status = artifact_set.run_command(tmp_path, "bad", args, "[pair]\nkind = lw\ngamma = x\n")
    assert status == 2
    assert (tmp_path / "bad" / "status.txt").read_text() == "2\n"
    assert "[pair] gamma takes a number" in (tmp_path / "bad" / "stderr.txt").read_text()


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


#: Where this machine differs from the digests' ``machine`` record, numbers
#: in PASS/FAIL lines must agree to REL_BOUND: one unit in the fourth
#: significant digit, the precision most report notes print.  Numbers below
#: NOISE on both sides are rounding noise (the scaling identity's zeros).
REL_BOUND = 2e-3
NOISE = 1e-12


def run_in_process(out_dir: Path, name: str, args: list[str], config: str | None,
                   monkeypatch) -> None:
    """``artifact_set.run_command`` through ``cli.main`` in this interpreter."""
    where = out_dir / name
    where.mkdir(parents=True)
    if config is not None:
        (where / artifact_set.CONFIG_NAME).write_text(config)
    monkeypatch.chdir(where)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([*args, "--out", "out"])
    (where / "stdout.txt").write_text(out.getvalue())
    (where / "stderr.txt").write_text(err.getvalue())
    (where / "status.txt").write_text(f"{status}\n")


def numbers_close(want: str, got: str) -> bool:
    """The texts differ at most in numbers, each within REL_BOUND or NOISE."""
    parts_want, parts_got = artifact_set.NUMBER.split(want), artifact_set.NUMBER.split(got)
    if len(parts_want) != len(parts_got) or parts_want[::2] != parts_got[::2]:
        return False
    pairs = zip(map(float, parts_want[1::2]), map(float, parts_got[1::2]))
    return all(abs(x - y) <= REL_BOUND * max(abs(x), abs(y)) or max(abs(x), abs(y)) < NOISE
               for x, y in pairs)


def test_numbers_close():
    assert numbers_close("PASS a: 1.738e-05 ratio 3.862", "PASS a: 1.739e-05 ratio 3.862")
    assert numbers_close("c=10: 5.551e-17", "c=10: 0.000e+00")
    assert not numbers_close("PASS a: 1.738e-05", "PASS a: 1.760e-05")
    assert not numbers_close("PASS a: 1.738e-05", "FAIL a: 1.738e-05")


def of_kind(records: list[str], *kinds: str) -> list[str]:
    return [line for line in records if line.split(" ", 1)[0] in kinds]


def command_of(record: str) -> str:
    """The command a ``file``, ``status``, ``stderr`` or ``verdict`` record is of."""
    kind, *fields = record.split(" ")
    return fields[2].split("/")[0] if kind == "file" else fields[0]


def test_artifacts_match_digests(tmp_path, monkeypatch):
    # The committed digests cover the whole set, and this run reproduces it:
    # byte for byte where the machine matches the record, else in its exit
    # statuses, stderr and PASS/FAIL lines.  The three h = 1/128 fields (about
    # 1.8 s in process) stay in the tool and the digests, not in this run.
    names = [name for name, _, _ in artifact_set.COMMANDS]
    every = artifact_set.DIGESTS.read_text().splitlines()
    assert [command_of(line) for line in of_kind(every, "status")] == sorted(names)
    ran = [name for name in names if not name.endswith("_h128")]
    recorded = [line for line in of_kind(every, "file", "status", "stderr", "verdict")
                if command_of(line) in ran]
    for name, args, config in artifact_set.COMMANDS:
        if name in ran:
            run_in_process(tmp_path, name, args, config, monkeypatch)
    got = artifact_set.records(tmp_path)

    assert of_kind(got, "status", "stderr") == of_kind(recorded, "status", "stderr")
    want_verdicts, got_verdicts = of_kind(recorded, "verdict"), of_kind(got, "verdict")
    assert len(got_verdicts) == len(want_verdicts)
    for want, line in zip(want_verdicts, got_verdicts):
        assert numbers_close(want, line), (want, line)
    if of_kind(every, "machine") == [f"machine {artifact_set.machine()}"]:
        listing = artifact_set.compare_files(of_kind(recorded, "file"), got)
        assert listing[:-1] == [], "\n".join(listing)


def test_compare_files():
    want = ["machine m", "file aa 1 x/a", "file bb 2 x/b", "file ee 5 x/e", "status x 0"]
    got = ["file aa 1 x/a", "file cc 3 x/b", "file dd 4 x/c", "status x 0"]
    assert artifact_set.compare_files(want, got) == [
        "x/b: sha256 differs, size 2 -> 3", "x/c: only in the tree", "x/e: only in the digests",
        "3 of 4 files differ",
    ]
