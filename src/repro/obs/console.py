"""The single sanctioned stdout sink for ``src/repro``.

digest-analyzer DGL007 bans bare ``print()`` inside the package so that
simulation and library code cannot quietly grow ad-hoc console output;
experiments and the CLI report through :func:`emit` instead. Keeping one
chokepoint makes output redirection (and future ``--quiet``/log-level
handling) a one-line change, and resolving ``sys.stdout`` at call time
keeps pytest's ``capsys`` capture working.
"""

from __future__ import annotations

import sys
from typing import TextIO


def emit(text: str = "", *, stream: TextIO | None = None) -> None:
    """Write one line of user-facing output.

    ``stream`` defaults to the *current* ``sys.stdout`` (looked up per
    call, not at import), mirroring ``print``'s capture-friendly
    behaviour without being ``print``.
    """
    target = stream if stream is not None else sys.stdout
    target.write(text + "\n")
