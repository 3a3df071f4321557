"""Tests for the one dispatch over the batch-alignment backends (repro.execution).

Every backend must return the serial path's alignments in input order and
report the backend that actually ran; names outside :data:`BACKENDS` are
rejected with the valid ones listed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.execution import BACKENDS, align_pairs
from repro.parallel.executor import BatchExecutor
from repro.parallel.shm import SharedMemoryExecutor
from tests.conftest import related_pair

CONFIG = GenASMConfig()


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(2024)
    return [related_pair(rng, length) for length in (40, 90, 150, 260)] + [
        ("ACGTNACGT", "ACGTNACGT")
    ]


@pytest.fixture(scope="module")
def reference(pairs):
    aligner = GenASMAligner(CONFIG)
    return [aligner.align(pattern, text) for pattern, text in pairs]


@pytest.fixture(scope="module")
def pool():
    with SharedMemoryExecutor(workers=2, config=CONFIG) as executor:
        yield executor


def assert_same(want, got):
    assert len(got) == len(want)
    for a, b in zip(want, got):
        assert str(b.cigar) == str(a.cigar)
        assert b.edit_distance == a.edit_distance
        assert b.text_end == a.text_end


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_serial_and_reports_itself(backend, pairs, reference):
    alignments, ran = align_pairs(pairs, CONFIG, backend=backend, workers=2)
    assert ran == backend
    assert_same(reference, alignments)


@pytest.mark.parametrize("name", ["process", "streaming", "service"])
def test_retired_backend_names_rejected(name):
    with pytest.raises(ValueError) as excinfo:
        align_pairs([("ACGT", "ACGT")], CONFIG, backend=name)
    assert all(valid in str(excinfo.value) for valid in BACKENDS)


def test_shared_without_a_pool_runs_in_process(pairs, reference):
    alignments, ran = align_pairs(pairs, CONFIG, backend="shared", workers=1)
    assert ran == "vectorized"
    assert_same(reference, alignments)


def test_shared_runs_on_the_supplied_executor(pairs, reference, pool):
    # The caller's pool is used even with workers=1, and stays open for
    # the next batch.
    for _ in range(2):
        alignments, ran = align_pairs(
            pairs, CONFIG, backend="shared", workers=1, executor=pool
        )
        assert ran == "shared"
        assert_same(reference, alignments)
    assert pool.started


def test_supplied_executor_with_another_config_rejected():
    executor = SharedMemoryExecutor(workers=2, config=GenASMConfig(window_size=32))
    try:
        with pytest.raises(ValueError, match="different config"):
            align_pairs([("ACGT", "ACGT")], CONFIG, backend="shared", executor=executor)
        assert not executor.started
    finally:
        executor.close()


def test_batch_executor_reports_the_supplied_pool_workers(pairs, reference, pool):
    result = BatchExecutor(backend="shared").run_alignments(pairs, executor=pool)
    assert result.backend == "shared"
    assert result.workers == pool.workers == 2
    assert result.items == len(pairs)
    assert_same(reference, result.results)
