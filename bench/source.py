"""Locate the library sources of the checkout the benchmark lives in."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "latdefect"
# imported on top of the package, which does not import it: the command line
# is thin, so its cost is its import time (click included)
CLI = f"{PACKAGE}.cli"
# third-party modules the library's import brought in; standard-library
# modules stay loaded once the first import has paid for them. Like
# sys.modules, which it describes, this is one record for the whole process.
DEPENDENCIES: set[str] = set()


class MissingLibraryError(RuntimeError):
    """The checkout holds no library sources to benchmark."""


def forget_library() -> None:
    """Drop every `latdefect` module, and its third-party dependencies, from
    `sys.modules`."""
    for name in [m for m in sys.modules if m in DEPENDENCIES or m.split(".")[0] == PACKAGE]:
        del sys.modules[name]


def import_library():
    """Import the package and its command line afresh from this checkout's
    `src/` and return the package.

    The modules of any earlier import are forgotten first, so the import
    executes the package and its third-party dependencies again; benchmark
    code looks functions up on the returned module at call time and never
    holds stale references. Raises
    MissingLibraryError when `src/` holds no package, so that an installed
    copy elsewhere is never measured by mistake.
    """
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingLibraryError(f"no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    forget_library()
    before = set(sys.modules)
    lib = importlib.import_module(PACKAGE)
    importlib.import_module(CLI)
    DEPENDENCIES.update(
        name
        for name in set(sys.modules) - before
        if name.split(".")[0] not in (PACKAGE, *sys.stdlib_module_names)
    )
    loaded = Path(lib.__file__).resolve()
    if SRC not in loaded.parents:
        raise MissingLibraryError(f"{PACKAGE} resolved to {loaded}, outside {SRC}")
    return lib
