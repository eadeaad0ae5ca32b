"""Run the command line in process and keep what it wrote.

`CliRunner().invoke(main, argv)` calls `main(argv)` with stdout and stderr
captured, each on its own and both together as `output`, in the order they
were written. `SystemExit` becomes `exit_code`; any other exception is
re-raised under `catch_exceptions=False`, else kept as `exception` with
exit code 1.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass


class _Tee(io.StringIO):
    """A stream that also writes everything to `both`."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: BaseException | None = None


class CliRunner:
    def invoke(self, main, args, catch_exceptions: bool = True) -> Result:
        both = io.StringIO()
        stdout, stderr = _Tee(both), _Tee(both)
        exit_code, exception = 0, None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                main(list(args))
            except SystemExit as exc:
                exit_code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:
                if not catch_exceptions:
                    raise
                exit_code, exception = 1, exc
        return Result(exit_code, stdout.getvalue(), stderr.getvalue(), both.getvalue(), exception)
