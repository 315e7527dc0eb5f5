"""The compiled engine's machine code, as the placement comments of
``_engine.c`` promise it.

The engine is built as :mod:`qgramsearch.native` builds it and read back
with ``objdump -d``.  Its speed hangs on where gcc puts the hot loops and
on how it allocates the registers of distq's pair step, and neither shows
in any outcome:

* ``PLACED``: kmp starts on a 64-byte boundary, every label in it on a
  16-byte one, and its set-up keeps the loops where they were (pinned as
  offsets mod 64, since a move by 16 bytes keeps every label aligned);
* ``LOOPS_PLACED``: in hashq and distq each tight loop (the hashing,
  table-scanning and word-comparison loops) starts on a 64-byte line;
* the ``asm`` barrier on ``ok`` in distq keeps ``align``'s pair step at 42
  instructions with 3 stack accesses (49 with 6 without it, and distq ran
  2-5 % slower).

The pins hold for the compiler and headers they were taken with, so the
test skips elsewhere.  An engine change that moves a pin updates it in the
same diff, with a paired timing of each loop against the parent.
"""

import platform
import re
import shutil
import subprocess
import sys

import pytest

from qgramsearch import native
from test_native import CC, SOURCE, needs_cc

pytestmark = needs_cc

PINNED_WITH = ("12.2", (3, 11, 7))  # gcc major.minor, CPython
KMP_LOOP_HEADS = (32, 48, 0, 16, 48, 48)  # offsets mod 64, in address order
TIGHT = 8  # a tight loop has at most this many instructions
PAIR_STEP = (42, 3)  # instructions, of which (%rsp) operands

JUMP = re.compile(r"j\w+\s+([0-9a-f]+) <")
PADDING = re.compile(r"(nop|data16|cs nop|xchg\s+%ax,%ax)")


def disassemble(tmp_path) -> dict:
    """``{function: [(address, instruction), ...]}`` of a fresh build, with
    the padding that aligns labels left out."""
    target = tmp_path / "engine.so"
    native._compile(str(SOURCE), str(target))
    listing = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", str(target)],
        capture_output=True, text=True, check=True).stdout
    functions, body = {}, None
    for line in listing.splitlines():
        if m := re.match(r"[0-9a-f]+ <([^>]+)>:$", line):
            body = functions.setdefault(m.group(1), [])
        elif (m := re.match(r"\s+([0-9a-f]+):\s+(.+)", line)) and \
                body is not None and not PADDING.match(m.group(2)):
            body.append((int(m.group(1), 16), m.group(2).strip()))
    return functions


def loops(code) -> list:
    """Each backward jump's ``[head, jump]`` range of instructions."""
    where = {address: x for x, (address, _) in enumerate(code)}
    found = []
    for x, (address, insn) in enumerate(code):
        if (m := JUMP.match(insn)) and int(m.group(1), 16) < address:
            found.append(code[where[int(m.group(1), 16)]:x + 1])
    return found


@pytest.fixture(scope="module")
def code(tmp_path_factory):
    if platform.machine() != "x86_64":
        pytest.skip(f"pins are x86-64 code, this is {platform.machine()}")
    if shutil.which("objdump") is None:
        pytest.skip("no objdump to read the build with")
    gcc = subprocess.run([*CC, "-dumpfullversion"], capture_output=True,
                         text=True).stdout.strip()
    if not gcc.startswith(PINNED_WITH[0] + ".") or \
            sys.version_info[:3] != PINNED_WITH[1]:
        pytest.skip(f"pins taken with gcc {PINNED_WITH[0]} and CPython "
                    f"{'.'.join(map(str, PINNED_WITH[1]))}, not {CC[0]} "
                    f"{gcc or '?'} and {platform.python_version()}")
    return disassemble(tmp_path_factory.mktemp("machine_code"))


def test_kmp_is_placed(code):
    kmp = code["kmp"]
    assert kmp[0][0] % 64 == 0
    labels = {int(m.group(1), 16) for _, insn in kmp
              if (m := JUMP.match(insn))} & {address for address, _ in kmp}
    assert sorted(label % 16 for label in labels) == [0] * len(labels)
    heads = sorted({loop[0][0] for loop in loops(kmp)})
    assert tuple(head % 64 for head in heads) == KMP_LOOP_HEADS


@pytest.mark.parametrize("search", ["hashq", "distq"])
def test_tight_loops_start_on_a_line(code, search):
    tight = [loop for loop in loops(code[search]) if len(loop) <= TIGHT]
    assert len(tight) >= 4  # the q-gram hash and table scan loops at least
    assert [hex(loop[0][0]) for loop in tight if loop[0][0] % 64] == []


def test_distq_pair_step_keeps_its_registers(code):
    # the pair step hashes the next two windows at once: a tight loop of
    # two byte loads, each folded into its own hash by a lea (h * 4 + byte);
    # the step is the shortest loop around it, from align's `step` label
    every = loops(code["distq"])
    pair = [loop for loop in every if len(loop) <= TIGHT
            and sum(insn.startswith("movzbl") for _, insn in loop) == 2
            and sum(",4)" in insn for _, insn in loop) == 2]
    assert len(pair) == 1
    inner = pair[0]
    step = min((loop for loop in every if len(loop) > len(inner)
                and loop[0][0] <= inner[0][0] and inner[-1][0] <= loop[-1][0]),
               key=len)
    stack = sum("(%rsp)" in insn for _, insn in step)
    assert (len(step), stack) == PAIR_STEP, "\n".join(
        f"{address:x}: {insn}" for address, insn in step)
