"""End-to-end integration tests: genome → reads → mapper → aligners → report."""

import pytest

from repro.baselines.edlib_like import EdlibLikeAligner
from repro.baselines.ksw2 import Ksw2Aligner
from repro.core.aligner import GenASMAligner
from repro.core.config import GenASMConfig
from repro.genomics.errors import ErrorModel
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import IlluminaSimulator, PacBioSimulator
from repro.gpu.kernel import GenASMKernelSpec
from repro.gpu.simulator import GpuSimulator
from repro.mapping.mapper import Mapper


@pytest.fixture(scope="module")
def pipeline():
    genome = SyntheticGenome.random(
        {"chr1": 60_000, "chr2": 30_000}, seed=21, repeat_fraction=0.05, repeat_length=800
    )
    reads = PacBioSimulator(mean_length=900, std_length=150, seed=22).simulate(genome, 8)
    mapper = Mapper(genome)
    return genome, reads, mapper


class TestLongReadPipeline:
    def test_candidates_align_consistently_across_aligners(self, pipeline):
        genome, reads, mapper = pipeline
        genasm = GenASMAligner()
        edlib = EdlibLikeAligner("prefix")
        checked = 0
        for read in reads:
            candidates = mapper.map_read(read)
            if not candidates:
                continue
            pattern, text = mapper.candidate_region_sequence(candidates[0], read.sequence)
            a = genasm.align(pattern, text)
            b = edlib.align(pattern, text)
            a.validate()
            # The windowed heuristic must stay within a small margin of the
            # optimal prefix alignment that Edlib computes.
            assert a.edit_distance >= b.edit_distance
            assert a.edit_distance <= b.edit_distance + max(3, b.edit_distance // 10)
            checked += 1
        assert checked >= 5

    def test_true_location_candidate_has_low_distance(self, pipeline):
        genome, reads, mapper = pipeline
        genasm = GenASMAligner()
        for read in reads[:4]:
            candidates = mapper.map_read(read)
            if not candidates:
                continue
            best = candidates[0]
            pattern, text = mapper.candidate_region_sequence(best, read.sequence)
            alignment = genasm.align(pattern, text)
            # The best candidate should align with an error rate comparable to
            # the simulated error rate (never wildly higher).
            assert alignment.edit_distance <= 2.0 * max(20, read.true_edits)

    def test_gpu_simulation_of_pipeline_batch(self, pipeline):
        genome, reads, mapper = pipeline
        pairs = []
        for read in reads[:4]:
            candidates = mapper.map_read(read)
            if candidates:
                pairs.append(mapper.candidate_region_sequence(candidates[0], read.sequence))
        assert pairs
        improved = GenASMKernelSpec(GenASMConfig(), name="improved")
        baseline = GenASMKernelSpec(GenASMConfig.baseline(), name="baseline")
        gpu = GpuSimulator()
        fast = gpu.simulate(pairs, improved, workload_multiplier=5_000)
        slow = gpu.simulate(pairs, baseline, workload_multiplier=5_000)
        assert fast.speedup_over(slow) > 1.5
        assert [a.edit_distance for a in fast.alignments] == [
            a.edit_distance for a in slow.alignments
        ]


class TestShortReadPipeline:
    def test_short_reads_align_in_single_window(self):
        genome = SyntheticGenome.random({"chr1": 40_000}, seed=31, repeat_fraction=0.0)
        reads = IlluminaSimulator(read_length=120, seed=32).simulate(genome, 10)
        mapper = Mapper(genome, min_chain_score=25, min_chain_anchors=2)
        config = GenASMConfig.short_read(150)
        genasm = GenASMAligner(config)
        edlib = EdlibLikeAligner("prefix")
        aligned = 0
        for read in reads:
            candidates = mapper.map_read(read)
            if not candidates:
                continue
            pattern, text = mapper.candidate_region_sequence(candidates[0], read.sequence)
            alignment = genasm.align(pattern, text)
            alignment.validate()
            assert alignment.metadata["windows"] == 1
            assert alignment.edit_distance == edlib.align(pattern, text).edit_distance
            aligned += 1
        assert aligned >= 6

    def test_affine_scoring_of_genasm_alignment(self):
        genome = SyntheticGenome.random({"chr1": 20_000}, seed=41, repeat_fraction=0.0)
        # ~1 % error, as in PacBio HiFi reads.
        hifi = ErrorModel(substitution_rate=0.004, insertion_rate=0.003, deletion_rate=0.003)
        reads = PacBioSimulator(
            mean_length=400, std_length=50, seed=42, error_model=hifi
        ).simulate(genome, 3)
        mapper = Mapper(genome)
        genasm = GenASMAligner()
        ksw2 = Ksw2Aligner()
        for read in reads:
            candidates = mapper.map_read(read)
            if not candidates:
                continue
            pattern, text = mapper.candidate_region_sequence(candidates[0], read.sequence)
            alignment = genasm.align(pattern, text)
            # Re-scoring the GenASM CIGAR with affine penalties gives a score
            # no better than the optimal affine aligner on the same span.
            consumed = text[: alignment.text_end]
            optimal = ksw2.align(pattern, consumed)
            assert alignment.affine_score() <= optimal.score
