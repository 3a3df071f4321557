"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.config import GenASMConfig

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
