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

#: Parametrizes a test's ``config`` over the configurations the batch
#: engine runs: the default one and the short-read one (3-word lanes).
ENGINE_CONFIGS = pytest.mark.parametrize(
    "config",
    [GenASMConfig(), GenASMConfig.short_read(150)],
    ids=["default", "short_read"],
)


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


#: Window widths spanning 1, 2 and 3 uint64 words per lane, including the
#: exact single-word boundary (64) and the first multi-word width (65).
WINDOW_SIZES = [32, 64, 65, 96, 128, 150]


def window_config(window_size: int, **overrides) -> GenASMConfig:
    """A window_size-parametrized config (short-read style above one word)."""
    if window_size <= 64:
        return GenASMConfig(
            window_size=window_size, window_overlap=min(24, window_size - 1), **overrides
        )
    return GenASMConfig.short_read(window_size, **overrides)


def adversarial_pairs():
    """Input shapes that stress distinct traceback branches.

    All-match (pure diagonal runs), all-mismatch with starved text (budget
    doubling to the full window plus trailing insertions), homopolymer
    (every tie-break is live at every step), empty-window shapes
    (text exhausted mid-alignment, empty pattern, empty text), a
    single-character window, and characters outside ACGT (``N``,
    lowercase, ``U``), which match nothing — not even themselves.
    """
    return [
        ("ACGT" * 32, "ACGT" * 32 + "ACGT"),
        ("A" * 80, "T" * 30),
        ("A" * 120, "A" * 115),
        ("ACGT" * 30, "ACGTA"),
        ("", "ACGT"),
        ("ACGT" * 20, ""),
        ("A", "A"),
        ("ACGTNACGT", "ACGTNACGT"),
        ("acgtacgt", "acgtacgt"),
        ("ACGUACGU", "ACGUACGU"),
        ("ACGTN" * 30, "ACGTN" * 30 + "AC"),
    ]


def random_pairs(rng: random.Random):
    """Mutated-copy pairs spanning the single/multi-word boundary lengths."""
    specs = [(5, 1), (63, 6), (64, 5), (65, 7), (130, 12), (200, 20)]
    pairs = []
    for length, edits in specs:
        pattern = random_dna(rng, length)
        pairs.append((pattern, mutate(rng, pattern, edits) + random_dna(rng, 8)))
    return pairs


def window_boundary_pairs(rng: random.Random, window_size: int):
    """Pairs that straddle the window width and the 64-bit word boundaries."""
    specs = [
        (window_size, max(2, window_size // 10)),
        (max(1, window_size - 1), 2),
        (window_size + 1, 3),
        (2 * window_size + 10, max(4, window_size // 8)),
        (40, 2),
        (64, 4),
        (65, 4),
    ]
    pairs = []
    for length, edits in specs:
        pattern = random_dna(rng, length)
        pairs.append((pattern, mutate(rng, pattern, edits) + random_dna(rng, 6)))
    # Adversarial shapes per window width: pure matches, budget doubling to
    # the full window, homopolymer ties, text exhausted mid-alignment.
    pairs.append(("ACGT" * (window_size // 2), "ACGT" * (window_size // 2) + "AC"))
    pairs.append(("A" * window_size, "T" * max(1, window_size // 3)))
    pairs.append(("A" * (window_size + 9), "A" * (window_size + 4)))
    pairs.append(("ACGT" * window_size, "ACGTACGT"))
    return pairs


def lane_wave(lanes) -> SoAWave:
    """A :class:`SoAWave` over ``(pattern, text, max_errors[, store_from])``
    lanes; ``store_from`` is 0 where a lane leaves it out."""
    patterns, texts, budgets, store_from = zip(
        *(tuple(lane) + (0,) * (4 - len(lane)) for lane in lanes)
    )
    return SoAWave(patterns, texts, budgets, store_from)


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
