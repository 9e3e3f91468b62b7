"""Drawn command lines end in a documented exit code, with at most one error line.

Each example runs in process through ``cli.main`` or one of the two scripts'
``main``, under a cap of 1000 from ``TAMARI_B_CAP`` unless it draws its own.
Exit 0 is success, 1 a failed check, 2 a usage error and 3 a refusal; an
argparse error leaves as ``SystemExit(2)``.  A cap of 10^30 lets a command
do all the work it asks for, so it is drawn only with degrees and
``--max-n`` of at most 4.  Under the other caps ``--max-n`` may also be
one of two degrees above the largest supported.  The commands that take
``--alpha`` sometimes get the n = 8 full group at the default cap, which
each refuses or lists at once.
"""

import contextlib
import importlib.util
import io
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btamari import cli, parabolic

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
HUGE = 10**30
PARTS = ("0", "-1", "1", "2", "3", "4", "5", "40000", str(HUGE), "")
SMALL_PARTS = ("0", "-1", "1", "2", "")
FULL_GROUP_8 = "0,1,1,1,1,1,1,1,1"
SECONDS = 10


def _script_main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


MAINS = {
    "btamari": cli.main,
    "sweep": _script_main("run_verification_sweep"),
    "report": _script_main("enumerative_report"),
}


def _maybe(draw, *tokens):
    return list(tokens) if draw(st.booleans()) else []


@st.composite
def command_lines(draw):
    """(program, argv, cap): cap is the flag's or the environment's value, or None."""
    cap = draw(st.sampled_from([None, "0", "1", "1000", str(HUGE)]))
    small = cap == str(HUGE)
    parts = st.sampled_from(SMALL_PARTS if small else PARTS)
    alpha = draw(st.lists(parts, max_size=3 if small else 4).map(",".join))
    max_ns = st.integers(-1, 4)
    if not small:
        max_ns = st.one_of(st.integers(-1, 60), st.sampled_from([40000, 3000000000]))
    max_n = str(draw(max_ns))
    program = draw(st.sampled_from(sorted(MAINS)))
    if program == "sweep":
        return program, ["--max-n", max_n, *_maybe(draw, "--json")], cap
    if program == "report":
        max_t = draw(st.sampled_from(["-1", "0", "1", "2", "5", "40000"]))
        return program, ["--max-n", max_n, "--max-t", max_t], cap
    command = draw(st.sampled_from(
        ["enumerate", "project", "lattice", "sequence", "cover-enum", "conjecture"]
    ))
    if command not in ("sequence", "conjecture") and draw(st.integers(0, 3)) == 0:
        alpha, cap = FULL_GROUP_8, str(parabolic.DEFAULT_CAP)
    flags = _maybe(draw, "--alpha", alpha)
    if command == "enumerate":
        flags += _maybe(draw, "--aligned") + _maybe(draw, "--batch", "missing.txt")
    elif command == "project":
        values = st.sampled_from([str(v) for v in range(-4, 5)] + [""])
        perm = draw(st.lists(values, max_size=5).map(",".join))
        flags += _maybe(draw, "--classes") + _maybe(draw, "--perm", perm)
        flags += _maybe(draw, "--dir", draw(st.sampled_from(["down", "up", "sideways"])))
    elif command == "lattice":
        check = draw(st.sampled_from(["all", "trim", "trim,extremal", "bogus", ""]))
        flags += _maybe(draw, "--check", check)
        flags += _maybe(draw, "--export", draw(st.sampled_from(["dot", "json"])))
        flags += _maybe(draw, "--out", "t")
    elif command in ("sequence", "conjecture"):
        flags += _maybe(draw, "--max-n", max_n)
        if command == "conjecture":
            flags += _maybe(draw, "--t", draw(parts)) + _maybe(draw, "--type-d")
            flags += _maybe(draw, "--min-n", str(draw(st.integers(-1, 60))))
    common = _maybe(draw, "--format", draw(st.sampled_from(["text", "json", "csv"])))
    if cap is not None:
        common += ["--cap", cap]
    if draw(st.booleans()):
        return program, [*common, command, *flags], cap
    return program, [command, *flags, *common], cap


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(line=command_lines())
def test_every_command_line_exits_documented(workdir, line):
    program, argv, cap = line
    out, err = io.StringIO(), io.StringIO()
    env_cap = cap if program != "btamari" and cap is not None else "1000"
    start = time.monotonic()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        patch.setenv(parabolic.CAP_ENV_VAR, env_cap)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = MAINS[program](argv)
            except SystemExit as exc:
                code = exc.code
    elapsed = time.monotonic() - start
    message = (program, argv, cap, code, err.getvalue())
    assert code in (0, 1, 2, 3), message
    assert sum("error:" in row for row in err.getvalue().splitlines()) <= 1, message
    assert "Traceback" not in err.getvalue(), message
    assert elapsed < SECONDS, message
