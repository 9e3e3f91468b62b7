"""A failed write to stdout ends every entry point in exit 2 and one line.

``btamari`` and the two scripts run as child processes under real file
descriptors: stdout is a pipe whose read end is closed before the child
starts, or ``/dev/full``.  Python buffers stdout unless PYTHONUNBUFFERED
is set, so the children run both ways: buffered, the error comes from the
final flush; unbuffered, from the first write.  A stdout closed from the
start is no error: what is written to it is discarded.  With stderr
unwritable, the ``error:`` line is lost but its exit code is not.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = {
    "btamari": ["-m", "btamari.cli", "sequence", "--max-n", "3"],
    "sweep": [str(ROOT / "scripts" / "run_verification_sweep.py"), "--max-n", "2"],
    "report": [str(ROOT / "scripts" / "enumerative_report.py"), "--max-n", "2"],
}


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return write


def _dev_full():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


def _run(argv, stdout, unbuffered=False, stderr=subprocess.PIPE):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        argv, stdout=stdout, stderr=stderr, env=env, text=True, timeout=60
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stdout", [_closed_pipe, _dev_full], ids=["closed-pipe", "dev-full"])
@pytest.mark.parametrize("program", sorted(ENTRY_POINTS))
def test_output_error_is_one_line_and_exit_two(program, stdout, unbuffered):
    fd = stdout()
    try:
        child = _run([sys.executable, *ENTRY_POINTS[program]], fd, unbuffered)
    finally:
        os.close(fd)
    lines = child.stderr.splitlines()
    assert child.returncode == 2, child.stderr
    assert len(lines) == 1 and lines[0].startswith("error: "), child.stderr
    assert "Traceback" not in child.stderr
    assert "Exception ignored" not in child.stderr


def test_closed_stdout_discards_output():
    # Started with stdout closed, Python sets sys.stdout to None; the rows
    # that enumerate writes through sys.stdout.write go nowhere, as print's do.
    argv = [sys.executable, "-m", "btamari.cli", "enumerate", "--alpha", "0,1"]
    child = _run(["sh", "-c", 'exec "$0" "$@" >&-', *argv], None)
    assert (child.returncode, child.stderr) == (0, "")


@pytest.mark.parametrize(
    "argv,code",
    [
        (["-m", "btamari.cli", "sequence", "--max-n", "9"], 3),
        (["-m", "btamari.cli", "--cap", "0", "sequence", "--max-n", "2"], 2),
        ([str(ROOT / "scripts" / "enumerative_report.py"), "--max-n", "9"], 3),
    ],
    ids=["btamari-cap", "btamari-usage", "report-cap"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_unwritable_stderr_keeps_the_exit_code(argv, code, unbuffered):
    fd = _dev_full()
    try:
        child = _run([sys.executable, *argv], subprocess.PIPE, unbuffered, stderr=fd)
    finally:
        os.close(fd)
    assert child.returncode == code
    assert "Traceback" not in child.stdout
