"""Line tracing of ``src/warnlab`` for ``tests/coverage_map.py``.

``coverage_map.py`` puts this directory first on ``PYTHONPATH``, so every
interpreter of its pytest run imports this module at start-up: pytest
itself and each CLI subprocess a test spawns, whose environment keeps the
parent's ``PYTHONPATH``. Unless ``COVERAGE_MAP_DIR`` and ``COVERAGE_MAP_SRC``
(the traced directory, ending in a separator) are set, it does nothing.
Otherwise each line an interpreter runs under ``COVERAGE_MAP_SRC`` is
recorded, and at exit the interpreter writes them to a new ``.json`` file
in ``COVERAGE_MAP_DIR`` as ``{file: [line, ...]}``. Only the main thread is
traced: warnlab starts no threads.
"""

import os
import sys

_OUT = os.environ.get("COVERAGE_MAP_DIR")
_SRC = os.environ.get("COVERAGE_MAP_SRC", "")

if _OUT and _SRC:
    import atexit

    _hits: set = set()  # (file, line)

    def _line(frame, event, arg):
        if event == "line":
            _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        # Only warnlab frames get a local tracer, so no other line is traced.
        return _line if frame.f_code.co_filename.startswith(_SRC) else None

    def _write():
        import json
        import tempfile
        sys.settrace(None)
        lines: dict = {}
        for path, line in _hits:
            lines.setdefault(path, []).append(line)
        fd, _ = tempfile.mkstemp(suffix=".json", dir=_OUT)
        with open(fd, "w", encoding="utf-8") as fp:
            json.dump(lines, fp)

    atexit.register(_write)
    sys.settrace(_call)
