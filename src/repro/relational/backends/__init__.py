"""Backend registry: spec strings to :class:`Backend` instances.

A *backend spec* is a string naming a registered backend plus optional
colon-separated options:

* ``"sqlite"`` — the default in-memory sqlite3 engine
* ``"sqlite:/path/to.db"`` — sqlite3 on a database file
* ``"file"`` / ``"file:csv"`` — read-only CSV tables in a fresh temp
  directory
* ``"file:csv:/data/dir"`` — CSV tables rooted at a directory

:func:`create_backend` builds a backend for one source schema;
:func:`parse_spec` validates a spec without constructing anything (the
CLI checks ``--backend`` with it at argument parsing).
"""

from __future__ import annotations

from repro.errors import SpecError
from repro.relational.backends.base import Backend, BackendCapabilities
from repro.relational.backends.file_backend import FileBackend
from repro.relational.backends.sqlite3_backend import Sqlite3Backend

__all__ = [
    "Backend",
    "BackendCapabilities",
    "FileBackend",
    "Sqlite3Backend",
    "create_backend",
    "parse_spec",
    "registered_backends",
]

#: Every valid spec shape, for error messages.
SPELLINGS = "sqlite, sqlite:PATH, file, file:csv, file:csv:DIR"


def _sqlite_options(options: str) -> dict:
    return {"path": options or None}


def _file_options(options: str) -> dict:
    file_format, _, root = options.partition(":")
    if file_format not in ("", "csv"):
        raise SpecError(f"unknown file backend format {file_format!r} "
                        f"(valid spellings: {SPELLINGS})")
    return {"root": root or None}


_FACTORIES = {
    "sqlite": (Sqlite3Backend, _sqlite_options),
    "file": (FileBackend, _file_options),
}


def registered_backends() -> list[str]:
    """Names of every registered backend."""
    return sorted(_FACTORIES)


def parse_spec(spec) -> tuple[type, dict]:
    """The backend class and constructor options a spec names; raises
    :class:`~repro.errors.SpecError` on anything but :data:`SPELLINGS`."""
    if not isinstance(spec, str) or not spec:
        raise SpecError(f"backend spec must be a non-empty string or "
                        f"Backend instance, got {spec!r}")
    name, _, options = spec.partition(":")
    if name not in _FACTORIES:
        raise SpecError(f"unknown backend {name!r} "
                        f"(valid spellings: {SPELLINGS})")
    backend_class, parse = _FACTORIES[name]
    return backend_class, parse(options)


def create_backend(spec, schema) -> Backend:
    """Build a backend from a spec string (or pass through an instance)."""
    if isinstance(spec, Backend):
        return spec
    backend_class, options = parse_spec(spec)
    backend = backend_class(schema, **options)
    backend.spec = spec
    return backend
