"""Fuzz the command line in-process with malformed flags and config files.

Every run must end with status 0, 1 or 2 and never with a traceback; status
2 comes with exactly one stderr line.  The tokens are drawn from fixed pools
of malformed values (wrong field counts, empty values, nan and inf, zero or
negative counts, unknown formats, sections and keys, an ``--out`` at or
below a regular file) after small valid flags, so that each run stays
cheap: at most a few level samples and a coarse window.  Each drawn flag is
one the command takes (read from ``build_parser``), except for one draw in
ten, which is a token argparse refuses for that command: an unknown flag,
an abbreviation or a flag of another command.
"""

import argparse
import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mingraphs.cli import VERIFY_CHECKS, build_parser, main

FLAGS = (
    "--gamma=1.5", "--gamma=1.05", "--gamma=1.995", "--gamma=2", "--gamma=nan", "--gamma=inf",
    "--gamma=x",
    "--levels=1", "--levels=0,2", "--levels=1,x", "--levels=nan", "--levels=inf",
    "--levels=-1", "--levels=,", "--levels=1e308", "--levels=1,1.0000001",
    "--tau=-2,2,5", "--tau=1,2", "--tau=-1,1,0", "--tau=-1,1,-3", "--tau=1,-1,5",
    "--tau=nan,1,5", "--tau=-inf,inf,5", "--tau=-1,1,2.5", "--tau=-1e300,1e300,5",
    "--tau=-1,1,100000000000", "--tau=-1,1,5,7",
    "--grid=0.5,1.5,-0.5,0.5,0.25", "--grid=0.5,3,-2", "--grid=0.5,1.5,-0.5,0.5,0",
    "--grid=0.5,1.5,-0.5,0.5,-0.1", "--grid=nan,1,0,1,0.25", "--grid=0.5,inf,-0.5,0.5,0.25",
    "--grid=1.5,0.5,-0.5,0.5,0.25", "--grid=-5,-3,0,1,0.5", "--grid=0.5,3,-2,2,1e-15",
    "--grid=0.5,1.5,-0.5,0.5,nan",
    "--format=csv", "--format=csv,json,svg", "--format=pdf", "--format=csv,pdf", "--format=,",
    "--format=json", "--gammas=1.5", "--gammas=nan",
    "--gammas=x", "--gammas=2", "--gammas=,",
    "--levels=", "--tau=", "--grid=", "--format=", "--gammas=", "--config=",
    "--out={tmp}/run.ini", "--out={tmp}/run.ini/sub", "--out={tmp}/run.ini/sub/deeper",
)

#: Tokens that no command takes: an unknown flag, an abbreviation, a removed flag.
UNKNOWN = ("--frob", "--gam=1.5", "--tol=msr_exact=1e-9")


def _taken() -> dict[str, set[str]]:
    """Command -> the flags its subparser takes."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return {name: {flag for action in sub._actions for flag in action.option_strings}
            for name, sub in commands.items()}


TAKEN = _taken()
#: Command -> the tokens of FLAGS whose flag it takes, and the other tokens.
OWN = {name: tuple(t for t in FLAGS if t.split("=")[0] in flags) for name, flags in TAKEN.items()}
FOREIGN = {name: UNKNOWN + tuple(t for t in FLAGS if t.split("=")[0] not in flags)
           for name, flags in TAKEN.items()}


#: Command -> up to three flag tokens, each one the command takes or, for
#: one draw in ten, one it refuses.
FLAG_LISTS = {
    name: st.lists(st.integers(0, 9).flatmap(
        lambda k, name=name: st.sampled_from(FOREIGN[name] if k == 0 else OWN[name])),
        max_size=3)
    for name in TAKEN
}


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
    # a complex exponent, a foreign, a repeated and a misspelt parameter
    ("pair", "h", "power-affine offset=1 exponent=1.5+0.7j"),
    ("pair", "h", "affine slope=3 exponent=2"),
    ("pair", "h", "power-affine offset=1 offset=5 exponent=1.5"),
    ("pair", "h", "power-affine offse=1 exponent=1.5"),
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
    entries=st.lists(st.sampled_from(ENTRIES), max_size=4),
    raw=st.one_of(st.none(), st.sampled_from(RAW)),
    data=st.data(),
)
def test_any_input_exits_cleanly(command, entries, raw, data):
    flags = data.draw(FLAG_LISTS[command.split()[0]], label="flags")
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
