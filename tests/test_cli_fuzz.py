"""Fuzz the command line in-process with malformed flags and config files.

Every run must end with status 0, 1 or 2 and never with a traceback; status
2 comes with exactly one stderr line.  The tokens are drawn from fixed pools
of malformed values (wrong field counts, empty values, nan and inf, zero or
negative counts, unknown formats, sections and keys, an ``--out`` at or
below a regular file) after small valid flags, so that each run stays
cheap: at most a few level samples and a coarse window.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mingraphs.cli import VERIFY_CHECKS, main

FLAGS = (
    "--gamma=1.5", "--gamma=1.05", "--gamma=1.995", "--gamma=2", "--gamma=nan", "--gamma=inf",
    "--gamma=x",
    "--levels=1", "--levels=0,2", "--levels=1,x", "--levels=nan", "--levels=inf",
    "--levels=-1", "--levels=,", "--levels=1e308",
    "--tau=-2,2,5", "--tau=1,2", "--tau=-1,1,0", "--tau=-1,1,-3", "--tau=1,-1,5",
    "--tau=nan,1,5", "--tau=-inf,inf,5", "--tau=-1,1,2.5", "--tau=-1e300,1e300,5",
    "--tau=-1,1,100000000000", "--tau=-1,1,5,7",
    "--grid=0.5,1.5,-0.5,0.5,0.25", "--grid=0.5,3,-2", "--grid=0.5,1.5,-0.5,0.5,0",
    "--grid=0.5,1.5,-0.5,0.5,-0.1", "--grid=nan,1,0,1,0.25", "--grid=0.5,inf,-0.5,0.5,0.25",
    "--grid=1.5,0.5,-0.5,0.5,0.25", "--grid=-5,-3,0,1,0.5", "--grid=0.5,3,-2,2,1e-15",
    "--grid=0.5,1.5,-0.5,0.5,nan",
    "--format=csv", "--format=csv,json,svg", "--format=pdf", "--format=csv,pdf", "--format=,",
    "--format=json", "--frob", "--tol=msr_exact=1e-9", "--gammas=1.5", "--gammas=nan",
    "--gammas=x", "--gammas=2", "--gammas=,", "--gam=1.5",
    "--levels=", "--tau=", "--grid=", "--format=", "--gammas=", "--config=",
    "--out={tmp}/run.ini", "--out={tmp}/run.ini/sub", "--out={tmp}/run.ini/sub/deeper",
)

#: Small valid values that every run starts from, with ``--out {tmp}/out``;
#: drawn flags after them win.
BASE_FLAGS = {
    "levelcurves": ("--tau=-2,2,5", "--levels=1"),
    "reconstruct": ("--grid=0.5,1.5,-0.5,0.5,0.25",),
    "verify": ("--grid=0.5,1.5,-0.5,0.5,0.25",),
    "sweep-gamma": ("--gammas=1.5",),
}

ENTRIES = (
    ("pair", "kind", "lw"), ("pair", "kind", "planar"), ("pair", "kind", "custom"),
    ("pair", "kind", "mystery"),
    ("pair", "gamma", "nan"), ("pair", "gamma", "2"), ("pair", "gamma", "1.3"),
    ("pair", "gamma", "x"),
    ("pair", "a", "2"), ("pair", "a", "0"), ("pair", "a", "inf"),
    ("pair", "k0", "0"), ("pair", "k0", "-2"), ("pair", "k0", "nan"), ("pair", "k0", "inf"),
    ("pair", "h", "affine slope=2"), ("pair", "h", "power-affine offset=1 exponent=1.5"),
    ("pair", "h", "affine slope=0"), ("pair", "h", "mystery"), ("pair", "h", ""),
    ("pair", "h", "affine slope=nan"), ("pair", "h", "affine slope"),
    ("pair", "h", "power-affine offset=-1 exponent=1.5"),
    ("pair", "g_anchor", "1:0"), ("pair", "g_anchor", "1"), ("pair", "g_anchor", "-1:0"),
    ("pair", "g_anchor", "nan:0"), ("pair", "g_anchor", "1:inf"),
    ("pair", "g", "affine slope=-0.5"), ("pair", "g", "affine slope=x"),
    ("pair", "h", "power-affine offset=1 exponent=1e300"), ("pair", "g", "affine slope=1e300"),
    # sections other than [pair], each with a value its flag would take
    ("levels", "values", "1"), ("tau", "n", "5"), ("grid", "spacing", "0.25"),
    ("output", "formats", "csv"), ("sweep", "gammas", "1.5"),
    ("verify", "n_tau", "3"), ("tolerances", "msr_exact", "1e-9"), ("plot", "width", "3"),
    ("pair", "mystery", "1"),
)

#: Whole files that configparser itself refuses.
RAW = ("kind = lw\n", "[pair]\nkind = lw\n[pair]\ngamma = 1.5\n", "[tau\nn = 5\n")


def config_text(entries, raw) -> str:
    if raw is not None:
        return raw
    sections: dict[str, dict[str, str]] = {}
    for section, key, value in entries:
        sections.setdefault(section, {})[key] = value
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["levelcurves", "reconstruct", "sweep-gamma",
                             *[f"verify {c}" for c in (*VERIFY_CHECKS, "all")]]),
    flags=st.lists(st.sampled_from(FLAGS), max_size=3),
    entries=st.lists(st.sampled_from(ENTRIES), max_size=4),
    raw=st.one_of(st.none(), st.sampled_from(RAW)),
)
def test_any_input_exits_cleanly(command, flags, entries, raw):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        config.write_text(config_text(entries, raw))
        # sweep-gamma builds its pairs from --gammas and takes no --config
        where = [] if command == "sweep-gamma" else ["--config", str(config)]
        argv = [*command.split(), *where, *BASE_FLAGS[command.split()[0]], "--out", f"{tmp}/out",
                *(flag.format(tmp=tmp) for flag in flags)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                status = exc.code
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
