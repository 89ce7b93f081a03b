"""Line probe: run the tier-1 tests under a line recorder and list every
executable line of `src/crossmod` that no test reaches.

    PYTHONPATH=src python tests/reach.py [pytest arguments]

It exits 1, listing the lines, when a line that is not in ALLOWED is never
run or when the tests fail, and 0 otherwise. The file name is not `test_*`,
so pytest does not collect it.

The arguments go to pytest as they are. With no positional path among them
it runs the whole `tests` directory; a positional path, such as
`tests/test_groups.py` or a test id, replaces that directory, so only those
tests run (and every line they do not reach is listed). Options such as
`--deselect <test id>` or `-k <expression>` pass through either way, and
pytest itself tells a positional path from an option's value.

On Python 3.12 and later the recorder is a `sys.monitoring` tool: it turns
on line events only in code objects whose file lies under `src/crossmod`,
and it disables each line's event once it has fired. On 3.10 and 3.11 it
is a `sys.settrace` hook that traces only those code objects and stops
tracing one once every line of it has run. Files are matched by full
path: the stdlib `trace` module's ignore list is keyed by bare module name,
so it would hide `crossmod/fixtures.py` behind `_pytest/fixtures.py` and
every `__init__.py` behind any ignored one.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crossmod"

# (file, function, the stripped text of each of its lines that no test
# runs, why)
ALLOWED = [
    ("cli.py", "<module>", ("sys.exit(main())",),
     "the script entry point; tests call `main` in-process"),
    ("verify.py", "_interchange",
     ('lines.append(f"  {name}: skipped (|C||P| = {size} > 64)")', "continue"),
     "criterion 4 skips crossed modules with |C||P| > 64, and every fixture has "
     "|C||P| <= 36; the skip becomes live when A4 = A4 joins the fixtures"),
]


def _lines(code, found):
    """Map each line number of code, and of every code object nested in it,
    to the name of the innermost code object that holds it."""
    for _, _, line in code.co_lines():
        if line:
            found[line] = code.co_name
    for const in code.co_consts:
        if isinstance(const, type(code)):
            _lines(const, found)
    return found


class Recorder:
    """Records the lines run in code objects from files under `root`; a
    subclass supplies `start` and `stop`."""

    def __init__(self, root):
        self.prefix = str(root) + os.sep
        self.paths = {}  # filename -> its real path, or None when outside root
        self.seen = {}  # real path -> line numbers run

    def _path(self, filename):
        if filename not in self.paths:
            path = os.path.realpath(filename)
            self.paths[filename] = path if path.startswith(self.prefix) else None
        return self.paths[filename]


class SettraceRecorder(Recorder):
    """Records the lines by a `sys.settrace` hook (Python 3.10 and 3.11)."""

    def __init__(self, root):
        super().__init__(root)
        self.left = {}  # code object -> its lines not yet run
        self.done = set()  # code objects outside root or with every line run

    def start(self):
        sys.settrace(self.call)

    def stop(self):
        sys.settrace(None)

    def call(self, frame, event, arg):
        code = frame.f_code
        if code in self.done:
            return None
        path = self._path(code.co_filename)
        if path is None:
            self.done.add(code)
            return None
        left = self.left.get(code)
        if left is None:
            left = self.left[code] = {line for _, _, line in code.co_lines() if line}
        seen = self.seen.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:
                    self.done.add(code)
                    return None
            return line

        # a call event stands at the line the frame starts or resumes at,
        # which raises no line event of its own when it is the `def` line
        return line(frame, "line", arg)


class MonitoringRecorder(Recorder):
    """Records the same lines by a `sys.monitoring` tool (Python 3.12+).
    Each code object's first start turns on its line events when its file is
    under `root` and is then disabled; each line event is disabled once it
    has fired, so every line costs one callback."""

    def start(self):
        mon = sys.monitoring
        self.tool = mon.COVERAGE_ID
        mon.use_tool_id(self.tool, "reach")
        mon.register_callback(self.tool, mon.events.PY_START, self.py_start)
        mon.register_callback(self.tool, mon.events.LINE, self.line)
        mon.set_events(self.tool, mon.events.PY_START)

    def stop(self):
        mon = sys.monitoring
        mon.set_events(self.tool, mon.events.NO_EVENTS)
        mon.free_tool_id(self.tool)

    def py_start(self, code, offset):
        path = self._path(code.co_filename)
        if path is not None:
            sys.monitoring.set_local_events(self.tool, code, sys.monitoring.events.LINE)
            # the line the code starts at raises no line event of its own
            # when it is the `def` line, as under `sys.settrace`
            start = next(line for begin, end, line in code.co_lines() if begin <= offset < end)
            if start:
                self.seen.setdefault(path, set()).add(start)
        return sys.monitoring.DISABLE

    def line(self, code, lineno):
        self.seen.setdefault(self.paths[code.co_filename], set()).add(lineno)
        return sys.monitoring.DISABLE


def unreached(seen):
    """(path, line number, function, text) of each executable line of SRC
    not in seen."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        ran = seen.get(str(path.resolve()), set())
        source = text.splitlines()
        for lineno, func in sorted(_lines(compile(text, str(path), "exec"), {}).items()):
            if lineno not in ran:
                out.append((path, lineno, func, source[lineno - 1].strip()))
    return out


class DefaultPath:
    """A pytest plugin that collects the `tests` directory when the
    arguments name no path of their own."""

    @staticmethod
    def pytest_configure(config):
        if config.args_source is not pytest.Config.ArgsSource.ARGS:
            config.args = [str(ROOT / "tests")]


def main(args):
    monitoring = sys.version_info >= (3, 12)
    recorder = (MonitoringRecorder if monitoring else SettraceRecorder)(SRC.resolve())
    recorder.start()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[DefaultPath])
    finally:
        recorder.stop()
    imported = Path(sys.modules["crossmod"].__file__).resolve()
    if not imported.is_relative_to(SRC.resolve()):
        print(f"reach: crossmod was imported from {imported}, not from {SRC}")
        return 1
    allowed = {(name, func, text) for name, func, texts, _ in ALLOWED for text in texts}
    missed = [(path, lineno, func, text) for path, lineno, func, text in unreached(recorder.seen)
              if (path.name, func, text) not in allowed]
    for path, lineno, func, text in missed:
        print(f"{path.relative_to(ROOT)}:{lineno} ({func}): {text}")
    print(f"reach: {len(missed)} unreached line(s) outside the allowlist")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
