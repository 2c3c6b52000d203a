"""Seeded fuzz of the command line: mutated shipped scenarios and flags.

Whatever the scenario text or the flags, a command must end with exit
code 0, 2 or 3 and print no traceback. Runs go through ``main`` in this
process (an escaping exception fails the test with its traceback); a
few run through ``python -m cournotgraph`` to check the real entry
point's stderr. A ``simulate`` that succeeds is run again at ``--thin 1``,
and so is a shorter run of half its whole steps: the shorter CSV must be
a line prefix of the longer. Every number in every CSV written is the
text ``repr`` gives its float. Every value used keeps the work small: a
simulation takes at most 4000 steps, and a mutated number is one of a
few short tokens, so no graph or step count grows large. A second case
mutates the tokens of the scenario's number and pair lists and checks
that the array readers give what the per-token readers of
``tests/helpers.py`` give: the same values or the same error text.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cournotgraph.cli import main

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((REPO / "scenarios").glob("*.scenario"))
# Beside the shipped files: a canonical point where A is singular, so
# equilibrium and stability fail numerically (exit 3).
SINGULAR = "[canonical]\nr = 1, 1, 1, 0.5, 0.5\nq0 = 0.1, 0.2, 0.3\n"

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e-?\d+)?")
TOKENS = ("0", "1", "2", "-1", "0.5", "-0.5", "1e308", "-1e308", "1e-308",
          "nan", "inf", "-inf", "", "x", "3,4", "1:1", "0-0")
GARBAGE_LINES = ("= 3", "foo = 1", "[x", "[canonical]", "[pd]", "key",
                 "q0 = 1", "init =", "graph = torus 3", "edges = 1:2")

# flag: (values that work, values the CLI must reject); the largest step
# count a valid pair gives is 40 / 0.01 = 4000 steps of a small system.
FLAGS = {
    "simulate": {"--t-end": (("2", "0.5", "40"), ("0", "-1", "nan", "inf", "x")),
                 "--dt": (("0.01", "0.1", "0.5", "3"), ("0", "-0.1", "nan", "inf")),
                 "--method": (("rk4", "euler"), ("bogus",)),
                 "--thin": (("1", "10"), ("0", "-2", "x"))},
    "sweep": {"--param": (("r1", "r3", "r5"), ("r9",)),
              "--from": (("0.1", "-1"), ("nan", "-inf", "1e308", "x")),
              "--to": (("1.5", "2"), ("inf", "-1e308", "x", "-2")),
              "--points": (("2", "3", "10"), ("1", "0", "-5", "x"))},
}
REQUIRED = {"sweep": ("--param", "--from", "--to", "--points")}
COMMANDS = ("simulate", "equilibrium", "stability", "pd", "sweep")
# The commands each kind of scenario is meant for; most cases use one.
FITTING = {"[canonical]": ("simulate", "equilibrium", "stability", "sweep"),
           "[network]": ("simulate", "equilibrium", "stability"),
           "[pd]": ("pd",)}


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(lines)) if lines else 0
        op = rng.randrange(7)
        if op == 0 and lines:
            del lines[k]
        elif op == 1 and lines:
            lines.insert(k, lines[k])
        elif op == 2 and lines and "=" in lines[k]:
            lines[k] = lines[k].split("=", 1)[0] + "="
        elif op == 3 and lines:
            numbers = list(_NUMBER.finditer(lines[k]))
            if numbers:
                m = rng.choice(numbers)
                lines[k] = (lines[k][:m.start()] + rng.choice(TOKENS)
                            + lines[k][m.end():])
        elif op == 4:
            lines.insert(k, rng.choice(GARBAGE_LINES))
        elif op == 5 and lines and lines[k]:
            cut = rng.randrange(len(lines[k]))
            lines[k] = lines[k][:cut] + lines[k][cut + 1:]
        elif op == 6:
            lines = lines[:k]
    return "\n".join(lines) + "\n"


def random_argv(rng: random.Random, original: str, scenario: Path,
                out: Path) -> list[str]:
    fitting = next(c for header, c in FITTING.items() if header in original)
    command = rng.choice(fitting if rng.random() < 0.8 else COMMANDS)
    argv = [command, "--scenario", str(scenario)]
    if command in ("simulate", "pd", "sweep"):
        argv += ["--out", str(out)]
    for flag, (valid, invalid) in FLAGS.get(command, {}).items():
        if flag in REQUIRED.get(command, ()) or rng.random() < 0.5:
            value = rng.choice(valid if rng.random() < 0.85 else invalid)
            argv.append(f"{flag}={value}")
    if command == "simulate" and not any(a.startswith("--t-end") for a in argv):
        argv.append("--t-end=1")   # keeps the default dt at 100 steps
    return argv


def run_in_process(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def check_numbers(path: Path, context: str) -> None:
    """Every number of the CSV at ``path`` is the text ``repr`` gives its
    float; the integer ``step`` and the ``verdict`` columns are not
    numbers of that kind."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    columns = [k for k, name in enumerate(header.split(","))
               if name not in ("step", "verdict")]
    for row in rows:
        fields = row.split(",")
        for k in columns:
            assert repr(float(fields[k])) == fields[k], f"{context}\n{row}"


def check_prefix(argv: list[str], tmp_path: Path, context: str) -> None:
    """Rerun a successful simulate argv at --thin 1, and again to the end
    of half its whole steps (at least one); the shorter run's CSV lines
    must lead the longer run's."""
    flags = dict(a.split("=", 1) for a in argv if "=" in a)
    dt = float(flags.get("--dt", "0.01"))
    steps = max(1, math.floor(float(flags["--t-end"]) / dt + 1e-9) // 2)
    base = argv[:3] + [f"{flag}={flags[flag]}" for flag in ("--dt", "--method")
                       if flag in flags] + ["--thin=1", "--out"]
    texts = []
    for t_end, name in ((flags["--t-end"], "long.csv"),
                        (repr(steps * dt), "short.csv")):
        code, err = run_in_process(base + [str(tmp_path / name),
                                           f"--t-end={t_end}"])
        assert code == 0, f"{context}\n{err}"
        check_numbers(tmp_path / name, context)
        texts.append((tmp_path / name).read_text(encoding="utf-8"))
    longer, shorter = (text.splitlines(keepends=True) for text in texts)
    assert len(shorter) == steps + 2, context
    assert longer[:len(shorter)] == shorter, context


def test_mutated_scenarios_and_flags_keep_the_exit_contract(tmp_path):
    rng = random.Random(20260)
    texts = [path.read_text(encoding="utf-8") for path in SCENARIOS] + [SINGULAR]
    scenario, out = tmp_path / "fuzz.scenario", tmp_path / "out.csv"
    codes, prefixes, written = set(), 0, 0
    for case in range(400):
        original = text = rng.choice(texts)
        if rng.random() < 0.7:
            text = mutate(text, rng)
        scenario.write_text(text, encoding="utf-8")
        argv = random_argv(rng, original, scenario, out)
        out.unlink(missing_ok=True)
        code, err = run_in_process(argv)
        context = f"case {case}: {argv}\n{text}"
        assert code in (0, 2, 3), context
        assert "Traceback" not in err, context
        codes.add(code)
        if out.exists():
            check_numbers(out, context)
            written += 1
        if argv[0] == "simulate" and code == 0:
            check_prefix(argv, tmp_path, context)
            prefixes += 1
    assert codes == {0, 2, 3}
    assert prefixes >= 20
    assert written >= 50


@pytest.mark.parametrize("text_edit, args", [
    (None, ["--t-end", "inf"]),
    (None, ["--t-end", "nan"]),
    (None, ["--dt=-inf"]),
    (("init = single_defector", "init ="), []),
])
def test_entry_point_reports_without_traceback(tmp_path, text_edit, args):
    source = "gas_transit_pd" if text_edit else "canonical_stable"
    text = (REPO / "scenarios" / f"{source}.scenario").read_text(encoding="utf-8")
    if text_edit:
        text = text.replace(*text_edit)
    scenario = tmp_path / "case.scenario"
    scenario.write_text(text, encoding="utf-8")
    command = "pd" if text_edit else "simulate"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "cournotgraph", command, "--scenario",
         str(scenario), "--out", str(tmp_path / "out.csv"), *args],
        env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "error: " in done.stderr


# Bits of text a list token may gain or become: ASCII and Unicode
# whitespace (U+001C-U+001F are whitespace to str.strip, not to int),
# a zero-width space, signs, digit separators, non-ASCII digits, words
# float reads, values past float and int64, empty tokens and separators.
LIST_BITS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
             "\u2003", "\u3000", "\u200b", "+", "-", "_", "1_0", "1__0", "_1",
             "\u0661\u0662", "\uff13", "\u0966", "inf", "-inf", "nan", "1e400",
             "1e-400", "0x10", "1.5", "9223372036854775808",
             "100000000000000000000", "", ",", ":", "::", "1::2", "1:2:3",
             "1-2-3", "--", "2")
LISTS = {"edges": (":", "1:1, 2:1, 2:2"), "graph": ("-", "0-1, 0-2, 1-2"),
         **{key: (None, "1, 0.2, 0.3")
            for key in ("alpha", "beta", "gamma", "speed", "q0")}}


def mutate_list(value: str, rng: random.Random) -> str:
    tokens = value.split(",")
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(tokens))
        bit = rng.choice(LIST_BITS)
        op = rng.randrange(4)
        if op == 0:
            tokens[k] = bit
        elif op == 1:
            cut = rng.randint(0, len(tokens[k]))
            tokens[k] = tokens[k][:cut] + bit + tokens[k][cut:]
        elif op == 2:
            tokens[k] = rng.choice(LIST_BITS[:11]) + tokens[k] + bit
        else:
            tokens.append("")  # a trailing comma
    return ",".join(tokens)


def read_or_error(read, *args):
    from cournotgraph.scenario import ScenarioError
    try:
        return read(*args)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


def test_list_readers_match_the_per_token_oracle():
    from cournotgraph import scenario
    from helpers import as_pairs, floats_by_token, pairs_by_token
    rng = random.Random(35)
    outcomes = set()
    for case in range(3000):
        key = rng.choice(list(LISTS))
        sep, value = LISTS[key]
        value = mutate_list(value, rng)
        if sep is None:
            got = read_or_error(scenario._floats, value, 4, key)
            want = read_or_error(floats_by_token, value, 4, key)
            if not isinstance(got, str):
                got = tuple(got.tolist())
        else:
            got = read_or_error(scenario._pairs, value, sep, 4, key)
            want = read_or_error(pairs_by_token, value, sep, 4, key)
            if not isinstance(got, str):
                got = as_pairs(got)
        assert got == want, f"case {case}: {key} = {value!r}"
        outcomes.add((key, isinstance(got, str)))
    # Every list was both read and refused.
    assert outcomes == {(key, refused) for key in LISTS for refused in (0, 1)}
