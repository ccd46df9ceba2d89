"""List the executable lines of src/bhvkit that the tier-1 tests never run.

Usage, from any directory, with pytest and hypothesis importable:

    python3.12 tools/linecensus.py [extra pytest arguments]

Runs the tier-1 suite (tests/) in this process with a sys.monitoring LINE
hook, which needs Python 3.12 or later, then prints each line of src/bhvkit
that holds bytecode, is no docstring, never ran and is not on ALLOWED, as
path:line and its text. A line on ALLOWED that did run is printed as stale.
Lines that only a child process runs count as never run: the hook sees this
process alone. Exits with pytest's code when the tests fail, else 1 if it
printed a line and 0 if not.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bhvkit"

# path:line -> why tier-1 cannot reach it in-process
ALLOWED = {
    "cli.py:256": "the python -m entry point; tier-1 runs it only in a child process",
    "linkgraph.py:342": "a forced step that empties a candidate set; the lemma chain leaves none on built graphs",
    "splits.py:98": "the byteswap of a big-endian host; tier-1 runs on little-endian ones",
}


def executable_lines(source: str, path: Path) -> set[int]:
    """The lines of a source file that some code object maps an instruction to, less docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [const for const in code.co_consts if isinstance(const, CodeType)]
    return lines - docstrings


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        sys.exit("linecensus needs Python 3.12 or later, for sys.monitoring")
    import pytest  # before the hook, so its own imports run untraced

    mon = sys.monitoring
    hits: dict[str, set[int]] = defaultdict(set)  # file name as the code object gives it -> lines run

    def on_line(code: CodeType, line: int):
        hits[code.co_filename].add(line)
        return mon.DISABLE  # one event per line is enough

    mon.use_tool_id(mon.COVERAGE_ID, "linecensus")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, on_line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        mon.set_events(mon.COVERAGE_ID, 0)
        mon.free_tool_id(mon.COVERAGE_ID)
    ran: dict[Path, set[int]] = defaultdict(set)
    for name, lines in hits.items():
        ran[Path(name).resolve()] |= lines
    printed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(executable_lines(source, path)):
            key, hit = f"{path.name}:{line}", line in ran[path]
            if hit == (key in ALLOWED):  # a line never run and not allowed, or allowed and run
                printed += 1
                print(f"{'stale allow-list entry' if hit else 'never run'}: {key}: {text[line - 1].strip()}")
    return status or int(printed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
