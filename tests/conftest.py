"""Shared test fixtures."""

import pytest

from repro.core.backends import shutdown_actor_pools


@pytest.fixture(scope="session", autouse=True)
def _shutdown_process_pools():
    """Release the shared actor pools at session end."""
    yield
    shutdown_actor_pools()
