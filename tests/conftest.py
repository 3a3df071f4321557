"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.batch import SoAWave
from repro.core.config import GenASMConfig

# Hypothesis profiles.  Tier-1 runs the bounded one; CI runs the mapping
# property tests, the alignment properties and the generated batches
# (``test_properties.py``, ``test_batch_traceback.py``,
# ``test_worker_pool.py``) again under ``--hypothesis-profile=ci``, ten
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


def lane_wave(lanes, *, traceback_band: bool) -> SoAWave:
    """A :class:`SoAWave` over ``(pattern, text, max_errors[, store_from])``
    lanes; ``store_from`` is 0 where a lane leaves it out."""
    patterns, texts, budgets, store_from = zip(
        *(tuple(lane) + (0,) * (4 - len(lane)) for lane in lanes)
    )
    return SoAWave(patterns, texts, budgets, store_from, traceback_band=traceback_band)


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


@pytest.fixture
def submitted_waves(monkeypatch):
    """Every wave a :class:`WorkerPool` is sent, as ``(pool, lanes)``."""
    from repro.parallel.pool import WorkerPool

    waves = []
    submit_wave = WorkerPool.submit_wave

    def spy(pool, pairs, **kwargs):
        waves.append((pool, len(pairs)))
        return submit_wave(pool, pairs, **kwargs)

    monkeypatch.setattr(WorkerPool, "submit_wave", spy)
    return waves


def related_pair(rng: random.Random, length: int, error_rate: float = 0.1):
    """A (pattern, text) pair where text is a mutated copy of pattern plus slack."""
    pattern = random_dna(rng, length)
    edits = max(1, int(length * error_rate))
    text = mutate(rng, pattern, rng.randint(0, edits)) + random_dna(rng, 8)
    return pattern, text
