"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core.config import GenASMConfig

# Hypothesis profiles.  Tier-1 runs the bounded one; CI runs the mapping
# property tests, the alignment properties and the generated batches
# (``test_properties.py``, ``test_batch_traceback.py``,
# ``test_shared_memory.py``) again under ``--hypothesis-profile=ci``, ten
# times longer.  No test pins its own ``max_examples``.
settings.register_profile("bounded", max_examples=100)
settings.register_profile("ci", max_examples=1_000)


def pytest_configure(config):
    # Loaded here, not at import: test modules import this file a second
    # time as ``tests.conftest``, and a load at import would then replace
    # the profile chosen with ``--hypothesis-profile``.
    if not config.getoption("--hypothesis-profile", default=None):
        settings.load_profile("bounded")


ALPHABET = "ACGT"


def random_dna(rng: random.Random, length: int) -> str:
    """Random DNA string from a seeded ``random.Random``."""
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def mutate(rng: random.Random, sequence: str, edits: int) -> str:
    """Apply ``edits`` random substitutions/insertions/deletions."""
    out = list(sequence)
    for _ in range(edits):
        if not out:
            out.append(rng.choice(ALPHABET))
            continue
        op = rng.choice("sid")
        pos = rng.randrange(len(out))
        if op == "s":
            out[pos] = rng.choice(ALPHABET)
        elif op == "i":
            out.insert(pos, rng.choice(ALPHABET))
        else:
            del out[pos]
    return "".join(out)


def assert_same_dc_table(got, want, context=None) -> None:
    """Field-for-field equality of two GenASM-DC tables and their counters."""
    for name in ("min_errors", "rows_computed", "final_column", "stored_r", "stored_quad"):
        assert getattr(got, name) == getattr(want, name), (name, context)
    assert got.stored_bytes() == want.stored_bytes(), context
    assert got.counter.as_dict() == want.counter.as_dict(), context


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for test data."""
    return random.Random(1234)


@pytest.fixture
def improved_config() -> GenASMConfig:
    """Default (all improvements on) configuration."""
    return GenASMConfig()


@pytest.fixture
def baseline_config() -> GenASMConfig:
    """MICRO-2020 baseline configuration."""
    return GenASMConfig.baseline()


def segment_exists(name: str) -> bool:
    """True if the named shared-memory segment still exists system-wide."""
    from multiprocessing import resource_tracker, shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    # Probing attached us; undo the tracker registration and detach so the
    # probe itself neither leaks nor double-unlinks.
    resource_tracker.unregister(shm._name, "shared_memory")
    shm.close()
    return True


def related_pair(rng: random.Random, length: int, error_rate: float = 0.1):
    """A (pattern, text) pair where text is a mutated copy of pattern plus slack."""
    pattern = random_dna(rng, length)
    edits = max(1, int(length * error_rate))
    text = mutate(rng, pattern, rng.randint(0, edits)) + random_dna(rng, 8)
    return pattern, text
