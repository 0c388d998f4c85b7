"""The CLI's exit-code contract under fuzzed input text and flag values.

Every run of `cli.main` ends in 0 (ok), 1 (a verification failed) or 2 (bad
input or configuration).  No exception escapes, no warning is raised, and
exit 1 always comes with the JSON of the failed verification.  The inputs are
the `data/` instances, their text mutated by truncation, dropped and
duplicated lines, token swaps and wrong headers; the flags are drawn from the
values each flag's domain has at and beyond its edges.  Named cases pin the
message of each out-of-range id and duplicate the mutations reach only by
chance.  Each drawn case has a 10 s deadline (a case takes milliseconds), so a
case that runs long fails its test once it returns; each `main` call also runs
under a 60 s alarm (`time_limit`), which fails a case that never returns
instead of hanging the session.
"""

import contextlib
import io
import json
import signal
import time
import warnings
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padnet.cli import FLAGS, main

DATA = Path(__file__).resolve().parents[1] / "data"
INSTANCES = ["path8", "grid4"]
TEXTS = {name: ((DATA / f"{name}.gr").read_text(), (DATA / f"{name}.td").read_text())
         for name in INSTANCES}
COMMANDS = ["convert", "net", "decompose", "cover", "partition-cover", "verify",
            "padding-estimate"]

BAD_TOKENS = ["nan", "inf", "-inf", "1e308", "-1", "0", "1.5", "99999999999999999999",
              "x", "p", "e", "b", "s", "ge", "td", ""]
WRONG_HEADERS = ["p ge 0 0", "p tw 8 7", "p ge 3", "p ge -1 7", "s td 0 0 0", "s tw 7 2 8",
                 "s td 7 2", "s td 7 -2 8", "p ge 99999999999999999999 7"]

FLAG_VALUES = {
    "--delta": ["2", "1", "0.5", "0", "-1", "nan", "inf", "1e308", "5e-324", "1e-300"],
    "--alpha": ["3", "2", "2.5", "1", "1.0000001", "0", "-1", "nan", "inf", "1e10"],
    "--trials": ["1", "3", "0", "-1"],
    "--seed": ["0", "7", "-1", "18446744073709551615", "18446744073709551616",
               "99999999999999999999999"],
    "--gamma": ["0.01", "0.0625", "1", "0", "-1", "nan", "inf", "1e308"],
    "--oracle-cap": ["60", "8", "1", "0", "-1", "100000"],
}

ALL_BUT_CONVERT = set(COMMANDS) - {"convert"}
SAMPLING = {"decompose", "verify", "padding-estimate"}
# the values each command that reads a flag must reject with exit 2; every
# other command refuses the flag itself (argparse's usage error, exit 2)
REJECTED = {
    "--delta": ({"0", "-1", "nan", "inf", "1e308"}, ALL_BUT_CONVERT),
    "--alpha": ({"0", "-1", "nan", "inf"}, ALL_BUT_CONVERT),
    "--trials": ({"0", "-1"}, SAMPLING),
    "--seed": ({"-1", "18446744073709551616", "99999999999999999999999"}, SAMPLING),
    "--gamma": ({"-1", "nan", "inf", "1e308"}, {"padding-estimate"}),
    "--oracle-cap": ({"0", "-1"}, {"convert", "verify"}),
}


CASE_TIMEOUT_S = 60.0


def test_rejected_readers_are_the_flag_table_readers():
    table = {}
    for flag, _, readers in FLAGS:
        table.setdefault(flag, set()).update(readers)
    assert {flag: readers for flag, (_, readers) in REJECTED.items()} == {
        flag: table[flag] for flag in REJECTED
    }


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the enclosed block once `seconds` pass, by SIGALRM from the real
    interval timer; the previous handler and timer are restored on exit."""

    def expire(signum, frame):
        pytest.fail(f"case ran past {seconds} s")  # not an Exception: main cannot catch it

    started = time.monotonic()
    previous = signal.signal(signal.SIGALRM, expire)
    delay, interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if delay:  # an outer timer keeps its deadline; one already due fires at once
            left = max(delay - (time.monotonic() - started), 1e-6)
            signal.setitimer(signal.ITIMER_REAL, left, interval)


def test_time_limit_fails_a_case_that_never_returns():
    def outer(signum, frame):
        raise AssertionError("the outer timer fired early")

    previous = signal.signal(signal.SIGALRM, outer)
    try:
        signal.setitimer(signal.ITIMER_REAL, 30.0)
        started = time.monotonic()
        with pytest.raises(pytest.fail.Exception, match="case ran past 0.1 s"):
            with time_limit(0.1):
                time.sleep(1.0)
        assert time.monotonic() - started < 0.9
        assert signal.getsignal(signal.SIGALRM) is outer
        assert 28.0 < signal.getitimer(signal.ITIMER_REAL)[0] <= 30.0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def mutated(draw, text: str) -> str:
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "swap", "header"]))
        if kind == "truncate":
            rest = "".join(lines[i:])
            lines = lines[:i] + [rest[: draw(st.integers(0, len(rest)))]]
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            tokens = lines[i].split()
            if tokens:
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            lines[i] = " ".join(tokens) + "\n"
        else:
            header = next((j for j, line in enumerate(lines) if line.startswith(("p ", "s "))), i)
            lines[header] = draw(st.sampled_from(WRONG_HEADERS)) + "\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def check_contract(command: str, argv: list[str], must_reject: bool) -> str:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning escapes as an exception
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with time_limit(CASE_TIMEOUT_S):
                    code = main([command, *argv])
            except SystemExit as exc:  # argparse rejects a malformed flag value
                code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert code == 2 or not must_reject, (code, out.getvalue())
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()
        assert out.getvalue() == "", out.getvalue()
        return err.getvalue()
    payload = json.loads(out.getvalue())  # verify's table goes to stderr
    if code == 1:
        # verify fails its report; convert fails its isometry check
        assert command in ("verify", "convert"), command
        assert payload.get("ok") is False or payload["isometry"].startswith("fail"), payload
    return err.getvalue()


def run_case(workdir: Path, command: str, gr: str, td: str, flags: list[str],
             must_reject: bool = False) -> str:
    """Run one command on the given text; returns its stderr."""
    (workdir / "in.gr").write_text(gr)
    (workdir / "in.td").write_text(td)
    argv = ["--graph", str(workdir / "in.gr"), "--td", str(workdir / "in.td"), *flags]
    if command != "convert" and "--delta" not in flags:
        argv += ["--delta", "2"]
    if command in SAMPLING and "--trials" not in flags:
        argv += ["--trials", "2"]  # the default 10^4 trials would dominate the run time
    return check_contract(command, argv, must_reject)


# on path8 (vertices 1..8, bags 1..7): (file, line, its replacement, message)
NAMED_CASES = {
    "e-names-vertex-0": ("gr", "e 1 2 1.0", "e 0 2 1.0",
                         "line 3: edge label outside 1..8 in 'e 0 2 1.0'"),
    "e-names-vertex-n+1": ("gr", "e 7 8 1.0", "e 7 9 1.0",
                           "line 9: edge label outside 1..8 in 'e 7 9 1.0'"),
    "b-names-vertex-0": ("td", "b 1 1 2", "b 1 0 2", "bag 1 references unknown vertex 0"),
    "b-names-vertex-n+1": ("td", "b 7 7 8", "b 7 7 9", "bag 7 references unknown vertex 9"),
    "b-repeated": ("td", "b 2 2 3", "b 2 2 3\nb 2 2 3", "line 5: duplicate bag id 2"),
    "tree-edge-to-unknown-bag": ("td", "6 7", "6 8", "tree edge (6,8) references unknown bag"),
    "s-no-bags": ("td", "s td 7 2 8", "s td 0 2 8", "line 2: bag count must be >= 1, got 0"),
    "s-negative-bags": ("td", "s td 7 2 8", "s td -3 2 8", "line 2: bag count must be >= 1, got -3"),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(NAMED_CASES))
def test_named_bad_ids_exit_2_with_their_message(workdir, case, command):
    which, line, replacement, message = NAMED_CASES[case]
    texts = dict(zip(("gr", "td"), TEXTS["path8"]))
    lines = texts[which].splitlines()
    lines[lines.index(line)] = replacement
    texts[which] = "\n".join(lines) + "\n"
    err = run_case(workdir, command, texts["gr"], texts["td"], [], must_reject=True)
    assert err == f"error: {workdir / ('in.' + which)}: {message}\n"


@given(data=st.data())
@settings(max_examples=200, deadline=timedelta(seconds=10), database=None)
def test_mutated_input_text_keeps_exit_contract(workdir, data):
    gr, td = TEXTS[data.draw(st.sampled_from(INSTANCES))]
    which = data.draw(st.sampled_from(["gr", "td", "both"]))
    if which != "td":
        gr = data.draw(mutated(gr))
    if which != "gr":
        td = data.draw(mutated(td))
    run_case(workdir, data.draw(st.sampled_from(COMMANDS)), gr, td, [])


@given(data=st.data())
@settings(max_examples=200, deadline=timedelta(seconds=10), database=None)
def test_flag_values_keep_exit_contract(workdir, data):
    command = data.draw(st.sampled_from(COMMANDS))
    flags, must_reject, unread = [], False, False
    for flag in data.draw(st.sets(st.sampled_from(sorted(FLAG_VALUES)), max_size=3)):
        value = data.draw(st.sampled_from(FLAG_VALUES[flag]))
        flags += [flag, value]
        rejected, readers = REJECTED[flag]
        must_reject |= value in rejected or command not in readers
        unread |= command not in readers
    gr, td = TEXTS[data.draw(st.sampled_from(INSTANCES))]
    err = run_case(workdir, command, gr, td, flags, must_reject)
    if unread:  # a flag the command does not read is refused by the command's own usage
        assert err.startswith(f"usage: padnet {command} ") and "unrecognized arguments: --" in err, err
