"""Run a fixed set of CLI commands and keep every byte they produce.

Usage:

    python3 tools/artifact_set.py OUT_DIR
    python3 tools/artifact_set.py --compare A B
    python3 tools/artifact_set.py --write-digests

Each command of ``COMMANDS`` runs as ``python -m mingraphs.cli`` with this
checkout's ``src`` first on PYTHONPATH, from its own directory
OUT_DIR/<name>.  Its output files go to OUT_DIR/<name>/out (``--out out``,
a relative path, so the paths that the CLI prints are the same in every
tree), and its stdout, stderr and exit status to ``stdout.txt``,
``stderr.txt`` and ``status.txt`` next to it.  Run the tool on two
checkouts and compare the trees: identical trees mean byte-identical
artifacts, messages and exit statuses.

``--compare A B`` prints the path of each file that differs between the
trees A and B, or exists in only one of them.  Where the two texts differ
only in their numbers, it adds the largest absolute and relative difference
between numbers at the same place; otherwise it says "text differs".  It
exits 0 when the trees are identical and 1 otherwise.

``--write-digests`` builds the set in a temporary directory and writes
``tests/artifacts.sha256`` (``DIGESTS``), which a tier-1 test checks: one
``file sha256 size path`` record per file; per command its ``status``, each
``stderr`` line and each PASS/FAIL ``verdict`` line of its stdout; and a
``machine`` record (numpy, Python, ``platform.machine()`` and numpy's
enabled CPU features, since SIMD dispatch can move last bits).  A change
that moves an artifact shows the moved records in its diff.

The set covers ``reconstruct`` (csv) at gamma 1.23, 1.5 and 1.77 times
h = 1/32, 1/64 and 1/128 on the default window, plus the masked window
x in [-3, 3] x y in [-2, 2] at h = 1/64 and, at h = 1/32, the window
x in [-2, -0.25] x y in [-0.5, 0.5], whose middle column misses the image
domain and whose last columns meet it; ``verify all`` near both ends of
the family and at 1.5; ``levelcurves`` (csv, json, svg) at three gammas;
``verify all``, ``levelcurves`` and ``reconstruct`` on a custom pair whose
g is anchored at zeta = 0; ``sweep-gamma`` at gamma 1.1, 1.5 and 1.9; the
planar negative control ``verify thm2``, which fails by design;
``verify thm1 --gamma 2``, which the CLI refuses; ``verify superharmonic``
on h = (zeta+1)**400, whose h' overflows float64 on the sample grid; and
``verify all`` on h = (zeta+1)**3.5 with its closed-form g, whose boundary
argument leaves [-pi/2, pi/2]; and ``levelcurves`` (csv, json, svg) on
h = (zeta+1)**1.3 + 0.5*(zeta+2)**1.8 with g anchored at zeta = 1, the one
command whose h is a sum of maps; and ``reconstruct`` on h = (zeta+1)**1e300,
whose jet overflows float64 while the grid is seeded; and ``reconstruct`` on
the ragged window x in [0.5, 3.03] x y in [-2, 2.04] at h = 1/32, whose
82 x 130 nodes leave nx - 1 and ny - 1 odd; and ``reconstruct`` on the
thin window x in [0.5, 3] x y in [0, 0.01] at h = 0.05, a grid of 51 x 1
nodes.  Every command runs, and the
set covers exit statuses 0, 1 (``verify all`` near the ends of the family
fails ``msr``, and planar ``thm2`` fails) and 2.

Only the standard library is used, and numpy's version and CPU features
for the ``machine`` record.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DIGESTS = Path(__file__).resolve().parents[1] / "tests" / "artifacts.sha256"

ANCHOR_ZERO_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\nh = power-affine offset=1 exponent=1.5\n"
    "g_anchor = 0j:-1.3333333333333333\n"
)
PLANAR_CONFIG = "[pair]\nkind = planar\na = 2\nk0 = 2\n"
#: h' = 400*(zeta+1)**399 overflows float64 on the sample grid.
OVERFLOW_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\nh = power-affine offset=1 exponent=400\n"
    "g_anchor = 1:0\n"
)
#: h = (zeta+1)**3.5 with its closed-form g: arg h' leaves [-pi/2, pi/2] on
#: the boundary, so D is not concave (and h is not univalent).
NON_INJECTIVE_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\nh = power-affine offset=1 exponent=3.5\n"
    "g = power-affine offset=1 exponent=-1.5 coeff=0.19047619047619047\n"
)
#: h = (zeta+1)**1.3 + 0.5*(zeta+2)**1.8, a sum whose terms have different
#: exponents, with g anchored at zeta = 1.
SUM_MAP_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\n"
    "h = power-affine offset=1 exponent=1.3 + power-affine offset=2 exponent=1.8 coeff=0.5\n"
    "g_anchor = 1:0\n"
)
#: h = (zeta+1)**1e300 overflows float64 wherever |zeta+1| > 1.
HUGE_EXPONENT_CONFIG = (
    "[pair]\nkind = custom\nk0 = 2\nh = power-affine offset=1 exponent=1e300\n"
    "g_anchor = 1:0\n"
)
CONFIG_NAME = "pair.ini"


def _commands() -> list[tuple[str, list[str], str | None]]:
    """(name, CLI arguments, config text or None) for each command of the set."""
    out: list[tuple[str, list[str], str | None]] = []
    for gamma in ("1.23", "1.5", "1.77"):
        for denom, spacing in (("32", "0.03125"), ("64", "0.015625"), ("128", "0.0078125")):
            out.append((f"reconstruct_g{gamma}_h{denom}",
                        ["reconstruct", "--gamma", gamma, "--format", "csv",
                         f"--grid=0.5,3,-2,2,{spacing}"], None))
    out.append(("reconstruct_masked_g1.5_h64",
                ["reconstruct", "--gamma", "1.5", "--format", "csv",
                 "--grid=-3,3,-2,2,0.015625"], None))
    out.append(("reconstruct_edge_g1.5_h32",
                ["reconstruct", "--gamma", "1.5", "--format", "csv",
                 "--grid=-2,-0.25,-0.5,0.5,0.03125"], None))
    for gamma in ("1.0013", "1.004", "1.5", "1.995", "1.9985"):
        out.append((f"verify_all_g{gamma}", ["verify", "all", "--gamma", gamma], None))
    for gamma in ("1.2", "1.5", "1.8"):
        out.append((f"levelcurves_g{gamma}",
                    ["levelcurves", "--gamma", gamma, "--format", "csv,json,svg"], None))
    anchored = ["--config", CONFIG_NAME]
    out.append(("anchor_zero_verify_all", ["verify", "all", *anchored], ANCHOR_ZERO_CONFIG))
    out.append(("anchor_zero_levelcurves",
                ["levelcurves", *anchored, "--format", "csv,json,svg"], ANCHOR_ZERO_CONFIG))
    out.append(("anchor_zero_reconstruct",
                ["reconstruct", *anchored, "--format", "csv"], ANCHOR_ZERO_CONFIG))
    out.append(("sweep_gamma", ["sweep-gamma", "--gammas", "1.1,1.5,1.9"], None))
    out.append(("planar_verify_thm2", ["verify", "thm2", "--config", CONFIG_NAME],
                PLANAR_CONFIG))
    out.append(("refused_verify_thm1_g2", ["verify", "thm1", "--gamma", "2"], None))
    out.append(("overflow_verify_superharmonic",
                ["verify", "superharmonic", "--config", CONFIG_NAME], OVERFLOW_CONFIG))
    out.append(("non_injective_verify_all", ["verify", "all", "--config", CONFIG_NAME],
                NON_INJECTIVE_CONFIG))
    out.append(("sum_map_levelcurves",
                ["levelcurves", "--config", CONFIG_NAME, "--format", "csv,json,svg"],
                SUM_MAP_CONFIG))
    out.append(("overflow_reconstruct",
                ["reconstruct", "--config", CONFIG_NAME, "--format", "csv"], HUGE_EXPONENT_CONFIG))
    out.append(("reconstruct_ragged_g1.5_h32",
                ["reconstruct", "--gamma", "1.5", "--format", "csv",
                 "--grid=0.5,3.03,-2,2.04,0.03125"], None))
    out.append(("reconstruct_thin_g1.5_h20",
                ["reconstruct", "--gamma", "1.5", "--format", "csv",
                 "--grid=0.5,3,0,0.01,0.05"], None))
    return out


COMMANDS = _commands()


def run_command(out_dir: Path, name: str, args: list[str], config: str | None) -> int:
    """Run one command from OUT_DIR/<name> and record its streams and status."""
    where = out_dir / name
    where.mkdir(parents=True)
    if config is not None:
        (where / CONFIG_NAME).write_text(config)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run([sys.executable, "-m", "mingraphs.cli", *args, "--out", "out"],
                          cwd=where, env=env, capture_output=True)
    (where / "stdout.txt").write_bytes(done.stdout)
    (where / "stderr.txt").write_bytes(done.stderr)
    (where / "status.txt").write_text(f"{done.returncode}\n")
    return done.returncode


#: A decimal number as the CLI writes one: sign, digits, fraction, exponent.
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def number_diff(a: str, b: str) -> tuple[float, float] | None:
    """Largest (absolute, relative) difference between the numbers at the same
    places of two texts, or None when the texts differ other than in numbers."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    largest_abs = largest_rel = 0.0
    for x, y in zip(map(float, parts_a[1::2]), map(float, parts_b[1::2])):
        if x != y:
            largest_abs = max(largest_abs, abs(x - y))
            largest_rel = max(largest_rel, abs(x - y) / max(abs(x), abs(y)))
    return largest_abs, largest_rel


def _files(root: Path) -> set[str]:
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def compare(a: Path, b: Path) -> tuple[list[str], int]:
    """One line per file that differs between the trees a and b, by path, and
    the number of files in either tree."""
    files_a, files_b = _files(a), _files(b)
    lines = []
    for name in sorted(files_a | files_b):
        if name not in files_b:
            lines.append(f"{name}: only in {a}")
        elif name not in files_a:
            lines.append(f"{name}: only in {b}")
        else:
            bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
            if bytes_a == bytes_b:
                continue
            diff = number_diff(bytes_a.decode(errors="replace"), bytes_b.decode(errors="replace"))
            if diff is None:
                lines.append(f"{name}: text differs")
            else:
                lines.append(f"{name}: numbers differ, max abs {diff[0]:.3g}, max rel {diff[1]:.3g}")
    return lines, len(files_a | files_b)


def machine() -> str:
    """What can move the last bits of an artifact: numpy, Python, the CPU
    architecture and the CPU features numpy dispatches to."""
    import numpy

    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    features = " ".join(name for name, enabled in __cpu_features__.items() if enabled)
    return (f"numpy {numpy.__version__}; python {platform.python_version()}; "
            f"{platform.machine()}; {features}")


def records(root: Path) -> list[str]:
    """The digest records of a tree built by this tool, without ``machine``."""
    lines = []
    for name in sorted(_files(root)):
        data = (root / name).read_bytes()
        lines.append(f"file {hashlib.sha256(data).hexdigest()} {len(data)} {name}")
    for command in sorted(path.name for path in root.iterdir()):
        where = root / command
        lines.append(f"status {command} {(where / 'status.txt').read_text().strip()}")
        lines.extend(f"stderr {command} {line}"
                     for line in (where / "stderr.txt").read_text().splitlines())
        lines.extend(f"verdict {command} {line}"
                     for line in (where / "stdout.txt").read_text().splitlines()
                     if line.startswith(("PASS ", "FAIL ")))
    return lines


def compare_files(want: list[str], got: list[str]) -> list[str]:
    """``--compare``'s listing for two lists of ``file`` records: one line per
    path whose digest differs or that one side lacks, then the count."""
    def files(lines: list[str]) -> dict[str, tuple[str, str]]:
        fields = (line.split(" ", 3) for line in lines if line.startswith("file "))
        return {path: (sha, size) for _, sha, size, path in fields}

    recorded, built = files(want), files(got)
    names = sorted(recorded.keys() | built.keys())
    listing = []
    for name in names:
        if name not in built:
            listing.append(f"{name}: only in the digests")
        elif name not in recorded:
            listing.append(f"{name}: only in the tree")
        elif recorded[name] != built[name]:
            listing.append(f"{name}: sha256 differs, size {recorded[name][1]} -> {built[name][1]}")
    return listing + [f"{len(listing)} of {len(names)} files differ"]


def build(out_dir: Path) -> None:
    """Run every command of the set into OUT_DIR, one directory each."""
    for name, cli_args, config in COMMANDS:
        status = run_command(out_dir, name, cli_args, config)
        print(f"{name}: exit {status}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, nargs="?",
                        help="new or empty directory for the tree")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two trees instead of building one")
    parser.add_argument("--write-digests", action="store_true",
                        help=f"build the set in a temporary directory and write {DIGESTS}")
    args = parser.parse_args(argv)
    if [args.out_dir is not None, args.compare is not None, args.write_digests].count(True) != 1:
        parser.error("give one of OUT_DIR, --compare A B or --write-digests")
    if args.write_digests:
        with tempfile.TemporaryDirectory() as tmp:
            build(Path(tmp))
            lines = [f"# {len(COMMANDS)} commands; rebuild with "
                     "python3 tools/artifact_set.py --write-digests",
                     f"machine {machine()}", *records(Path(tmp))]
        DIGESTS.write_text("\n".join(lines) + "\n")
        print(f"{len(lines)} lines in {DIGESTS}")
        return 0
    if args.compare is not None:
        for tree in args.compare:
            if not tree.is_dir():
                parser.error(f"{tree} is not a directory")
        lines, total = compare(*args.compare)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {total} files differ")
        return 1 if lines else 0
    out_dir = args.out_dir.resolve()
    if out_dir.exists() and any(out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    build(out_dir)
    files = sum(len(names) for _, _, names in os.walk(out_dir))
    print(f"{len(COMMANDS)} commands, {files} files in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
