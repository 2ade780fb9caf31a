"""Shared fixtures for the test suite, plus a per-test timeout guard.

The timeout guard exists for the socket/worker tests: a wedged
connection or a deadlocked thread pairing must fail the one test fast
(with a traceback pointing at the blocked line) instead of hanging the
whole CI job until the runner is killed.  It is implemented here with
``SIGALRM`` rather than the ``pytest-timeout`` package so the suite has
no extra test dependency; the semantics match pytest-timeout's "signal"
method.  Override per test with ``@pytest.mark.timeout(seconds)``, or
suite-wide with the ``REPRO_TEST_TIMEOUT_S`` environment variable
(``0`` disables the guard entirely).
"""

import errno
import os
import signal
import threading

import numpy as np
import pytest

from repro.field import DEFAULT_PRIME, PAPER_PRIME, FiniteField
from repro.service import socket_transport

DEFAULT_TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "120"))


def _timeout_guard(item, stage):
    """Arm SIGALRM around one runtest stage (hookwrapper body).

    Setup and teardown are guarded too: a fixture that wedges (a worker
    server that won't stop, a refiller that won't join) hangs the job
    just as effectively as a wedged test body.
    """
    timeout = DEFAULT_TEST_TIMEOUT_S
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        timeout = float(marker.args[0])
    if (
        timeout <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_timeout(signum, frame):
        pytest.fail(
            f"test {stage} exceeded the per-test timeout of {timeout:g}s "
            f"(likely a hung socket/worker; see the traceback for the "
            f"blocked call)"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _timeout_guard(item, "setup")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _timeout_guard(item, "call")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _timeout_guard(item, "teardown")


def _no_space(size):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def lane_name(monkeypatch):
    """``lane_name(column)``: the transport to build for a lane column.

    Every column names a transport except ``"framed"``: the ``process``
    lane with shared-memory arena creation forced to raise
    ``OSError(ENOSPC)``, as a ``/dev/shm`` too small for the arena
    does, so every request rides the frame.
    """

    def resolve(column: str) -> str:
        if column != "framed":
            return column
        monkeypatch.setattr(socket_transport, "SegmentArena", _no_space)
        return "process"

    return resolve


@pytest.fixture
def gf() -> FiniteField:
    """The default field GF(2^31 - 1)."""
    return FiniteField(DEFAULT_PRIME)


@pytest.fixture
def gf_paper() -> FiniteField:
    """The paper's field GF(2^32 - 5)."""
    return FiniteField(PAPER_PRIME)


@pytest.fixture
def gf_small() -> FiniteField:
    """A small prime field for exhaustive checks."""
    return FiniteField(97)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(params=[DEFAULT_PRIME, PAPER_PRIME, 97, 65537])
def gf_any(request) -> FiniteField:
    """Parametrized over representative field sizes."""
    return FiniteField(request.param)


def validate_json_schema(instance, schema, root=None, path="$"):
    """Minimal JSON-Schema (draft-07 subset) validator.

    CI installs only numpy/pytest/hypothesis, so the trace-schema tests
    cannot depend on the ``jsonschema`` package.  This covers exactly the
    keywords ``tests/obs/golden/trace.schema.json`` uses: ``type``
    (including union types and ``null``), ``required``, ``properties``,
    ``additionalProperties`` (boolean or schema), ``items``, ``$ref``
    into ``#/definitions``, ``minimum``, and ``minLength``.  Raises
    ``AssertionError`` naming the offending path.
    """
    root = root if root is not None else schema
    ref = schema.get("$ref")
    if ref is not None:
        assert ref.startswith("#/"), f"{path}: unsupported $ref {ref!r}"
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        return validate_json_schema(instance, target, root, path)
    expected = schema.get("type")
    if expected is not None:
        kinds = expected if isinstance(expected, list) else [expected]
        checks = {
            "null": lambda v: v is None,
            "boolean": lambda v: isinstance(v, bool),
            "integer": lambda v: isinstance(v, int)
            and not isinstance(v, bool),
            "number": lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool),
            "string": lambda v: isinstance(v, str),
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
        }
        assert any(checks[k](instance) for k in kinds), (
            f"{path}: expected {expected}, got {type(instance).__name__} "
            f"({instance!r})"
        )
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema:
            assert instance >= schema["minimum"], (
                f"{path}: {instance} < minimum {schema['minimum']}"
            )
    if isinstance(instance, str) and "minLength" in schema:
        assert len(instance) >= schema["minLength"], (
            f"{path}: length {len(instance)} < {schema['minLength']}"
        )
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            assert name in instance, f"{path}: missing required {name!r}"
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                validate_json_schema(value, props[key], root, f"{path}.{key}")
            elif extra is False:
                raise AssertionError(f"{path}: unexpected property {key!r}")
            elif isinstance(extra, dict):
                validate_json_schema(value, extra, root, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate_json_schema(item, schema["items"], root, f"{path}[{i}]")


@pytest.fixture(name="validate_json_schema")
def validate_json_schema_fixture():
    return validate_json_schema
