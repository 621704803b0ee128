"""Line-coverage gate: every executable line of ``src/multlat`` runs in
process under the tier-1 tests, or is in ``ALLOWED`` with its reason.

Run from the repository root:

    python tests/linecov.py

The runner puts ``src`` first on ``sys.path``, installs a ``sys.settrace``
tracer that follows only frames whose code lives in ``src/multlat``, and
then runs pytest in this process on ``tests``.  A line is executable when
a code object compiled from the file maps some bytecode to it; it ran when
a frame reported it.  The runner exits 1 when
pytest fails, when an executable line did not run and is not allowed, or
when an allowed line ran or an entry holds no executable line, so the list
cannot go stale.  Lines that run only in a child process, as the subprocess
tests run ``python -m multlat``, are invisible to the tracer.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multlat"

#: (file, first line as written without indentation, or None for the whole
#: file, number of lines, reason).  An entry is anchored on its first line's
#: text, which must occur exactly once, so it moves with the code.
ALLOWED = (
    ("__main__.py", None, 0,
     "the entry point of python -m multlat, run only by the subprocess tests"),
    ("cli.py", "except BrokenPipeError:", 9,
     "a reader that closes standard output; only the subprocess test "
     "test_cli.py::test_a_closed_stdout_exits_3_with_one_line has one"),
    ("cli.py", "raise SystemExit(main())", 1,
     "runs only when cli.py is the main module, never on import"),
)


def _executable(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` maps to."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def _allowed(files: dict[str, Path]) -> list[tuple[str, set[int]]]:
    """The file and the executable lines of each entry of ``ALLOWED``."""
    out = []
    for name, first, count, _ in ALLOWED:
        text = files[name].read_text(encoding="utf-8").splitlines()
        if first is None:
            start, count = 1, len(text)
        else:
            [start] = [k for k, t in enumerate(text, 1) if t.strip() == first]
        lines = set(range(start, start + count)) & _executable(files[name])
        out.append((name, lines))
    return out


def _ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 as '1-3, 7'."""
    out: list[str] = []
    for k in lines:
        if out and int(out[-1].rpartition("-")[2]) == k - 1:
            out[-1] = f"{out[-1].partition('-')[0]}-{k}"
        else:
            out.append(str(k))
    return ", ".join(out)


def main() -> int:
    # The subprocess tests' children import the same package.
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    import pytest
    sys.settrace(tracer)  # no test runs the package in another thread
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    import multlat
    if Path(multlat.__file__).resolve().parent != PACKAGE:
        print(f"imported {multlat.__file__}, not the package under {PACKAGE}",
              file=sys.stderr)
        return 1

    files = {p.name: p for p in sorted(PACKAGE.glob("*.py"))}
    entries = _allowed(files)
    stale = 0
    for (name, first, _, _), (_, lines) in zip(ALLOWED, entries):
        ran_too = lines & ran.get(str(files[name]), set())
        if not lines or ran_too:
            stale += 1
            print(f"{name}: the entry at {first!r} is stale: "
                  + (f"lines {_ranges(sorted(ran_too))} ran" if lines
                     else "it holds no executable line"))
    missed = total = 0
    for name, path in files.items():
        executable = _executable(path)
        total += len(executable)
        left = executable - ran.get(str(path), set())
        for entry_name, lines in entries:
            if entry_name == name:
                left -= lines
        if left:
            print(f"{name}: did not run: {_ranges(sorted(left))}")
        missed += len(left)
    print(f"{missed} of {total} executable lines did not run and are not "
          f"allowed; {stale} stale allowlist entries")
    return 1 if code != 0 or missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
