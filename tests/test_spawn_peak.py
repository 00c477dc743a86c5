"""The slow checks bound each CLI process's memory by the peak that
``slow_drops.spawn_python`` reports.  It must be the child's own: a spawned
child's ru_maxrss starts at the peak of the process that spawned it, and
VmHWM, which the child writes at exit, restarts at exec."""

import tempfile

from slow_drops import spawn_cli, spawn_python


def own_peak_kb():
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])


def test_the_peak_is_the_childs_own():
    ballast = b"\1" * (110 << 20)  # every page written, so resident
    assert own_peak_kb() > 100 * 1024
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_python(out, ["-c", "pass"])
    del ballast
    assert code == 0
    assert 0 < peak < 40 * 1024, peak


def test_the_peak_is_read_on_every_exit():
    with tempfile.TemporaryFile() as out:
        code, _, peak = spawn_python(out, ["-c", "import sys; print(sys.argv); sys.exit(3)", "x"])
        out.seek(0)
        assert out.read() == b"['-c', 'x']\n"  # as ``python -c`` sets it
    assert code == 3 and 0 < peak < 40 * 1024, (code, peak)
    for args, want in ((["--c", "2"], 0), (["--c", "0"], 2)):
        with tempfile.TemporaryFile() as out:
            code, _, peak = spawn_cli(out, "estimate", *args)
            out.seek(0)
            text = out.read()
        assert code == want and 0 < peak < 80 * 1024, (args, code, peak)
        assert text.startswith(b"c\t2\nphi\t1.3247") if want == 0 else text == b"", text
