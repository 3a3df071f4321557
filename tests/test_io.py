"""Tests for repro.io: MAPQ, record building, SAM/PAF emission, sinks."""

import io
from types import SimpleNamespace

import pytest

from repro.batch.engine import BatchAlignmentEngine
from repro.core.alignment import Alignment
from repro.core.cigar import Cigar, CigarOp
from repro.core.config import GenASMConfig
from repro.genomics.errors import ErrorModel
from repro.genomics.genome import SyntheticGenome
from repro.genomics.sequences import reverse_complement
from repro.harness.dataset import build_paper_dataset
from repro.io import (
    FLAG_REVERSE,
    FLAG_SECONDARY,
    GroupingSink,
    MAX_MAPQ,
    PafSink,
    SamEmitter,
    SamSink,
    as_pair,
    build_records,
    compute_mapq,
    write_paf,
    write_sam,
)
from repro.mapping.mapper import CandidateMapping, Mapper
from repro.pipeline import StreamingPipeline


def make_candidate(
    name="read1",
    chrom="chr1",
    ref_start=10,
    ref_end=14,
    strand="+",
    chain_score=50.0,
    anchors=10,
    is_primary=True,
):
    return CandidateMapping(name, chrom, ref_start, ref_end, strand, chain_score, anchors, is_primary)


def make_alignment(pattern, text, cigar_text):
    cigar = Cigar.from_string(cigar_text)
    return Alignment(pattern, text, cigar, cigar.edit_distance)


@pytest.fixture(scope="module")
def genome():
    return SyntheticGenome.random({"chr1": 100}, seed=0, repeat_fraction=0.0)


@pytest.fixture(scope="module")
def workload():
    return build_paper_dataset(
        read_count=12, read_length=300, genome_length=30_000, seed=3
    )


@pytest.fixture(scope="module")
def workload_results(workload):
    alignments = BatchAlignmentEngine(GenASMConfig()).align_pairs(workload.pairs)
    return list(zip(workload.candidates, alignments))


#: Mapped workloads the reference-agreement checks run on: the module
#: fixture's, 24 reads of 1 kb, and 40 Illumina-style reads aligned under
#: the short-read config.
EMISSION_WORKLOADS = {
    "long-1kb": (
        dict(read_count=24, read_length=1_000, genome_length=60_000, seed=5),
        GenASMConfig(),
    ),
    "short-150": (
        dict(
            read_count=40,
            read_length=150,
            genome_length=40_000,
            seed=7,
            error_model=ErrorModel.illumina(),
        ),
        GenASMConfig.short_read(150),
    ),
}


@pytest.fixture(scope="module")
def emitted(request, workload, workload_results):
    """(workload, [(candidate, alignment)]) for the named emission workload."""
    if request.param == "fixture":
        return workload, workload_results
    params, config = EMISSION_WORKLOADS[request.param]
    mapped = build_paper_dataset(**params)
    alignments = BatchAlignmentEngine(config).align_pairs(mapped.pairs)
    assert alignments, request.param
    return mapped, list(zip(mapped.candidates, alignments))


class TestComputeMapq:
    def test_unique_perfect_mapping_gets_max(self):
        assert compute_mapq(100.0, 0.0, 1.0, anchors=10) == MAX_MAPQ

    def test_fully_ambiguous_gets_zero(self):
        assert compute_mapq(100.0, 100.0, 1.0) == 0

    def test_nonpositive_primary_gets_zero(self):
        assert compute_mapq(0.0, 0.0) == 0
        assert compute_mapq(-5.0, 0.0) == 0

    def test_monotone_in_chain_score_gap(self):
        qualities = [
            compute_mapq(100.0, secondary, 1.0, anchors=10)
            for secondary in range(0, 101, 5)
        ]
        assert qualities == sorted(qualities, reverse=True)
        assert qualities[0] == MAX_MAPQ and qualities[-1] == 0

    def test_identity_scales_quality(self):
        assert compute_mapq(100.0, 0.0, 0.5) == MAX_MAPQ // 2
        assert compute_mapq(100.0, 0.0, 0.5) < compute_mapq(100.0, 0.0, 0.9)

    def test_few_anchors_downweight(self):
        assert compute_mapq(100.0, 0.0, 1.0, anchors=5) == MAX_MAPQ // 2
        assert compute_mapq(100.0, 0.0, 1.0, anchors=100) == MAX_MAPQ

    def test_secondary_clamped_to_primary(self):
        # A (numerically noisy) secondary above the primary must not go negative.
        assert compute_mapq(100.0, 120.0) == 0


class TestAsPairAndGrouping:
    def test_accepts_tuple_and_attribute_shapes(self):
        candidate = make_candidate()
        alignment = make_alignment("ACGT", "ACGT", "4=")
        assert as_pair((candidate, alignment)) == (candidate, alignment)
        shaped = SimpleNamespace(candidate=candidate, alignment=alignment)
        assert as_pair(shaped) == (candidate, alignment)

    def test_rejects_unknown_shape(self):
        with pytest.raises(TypeError):
            as_pair("not a result")

    def test_rejects_missing_candidate(self):
        shaped = SimpleNamespace(
            candidate=None, alignment=make_alignment("AC", "AC", "2=")
        )
        with pytest.raises(ValueError, match="no CandidateMapping"):
            as_pair(shaped)


class TestBuildRecords:
    def test_primary_election_and_mapq(self):
        alignment = make_alignment("ACGT", "ACGT", "4=")
        group = [
            (make_candidate(chain_score=50.0, is_primary=True), alignment),
            (
                make_candidate(ref_start=60, chain_score=25.0, is_primary=False),
                alignment,
            ),
        ]
        records = build_records(group)
        assert [r.is_primary for r in records] == [True, False]
        # gap = 1 - 25/50 = 0.5 at full identity and >=10 anchors -> 30.
        assert records[0].mapq == 30
        assert records[1].mapq == 0

    def test_reference_placement(self):
        record, = build_records([(make_candidate(ref_start=10), make_alignment("ACGT", "ACGT", "4="))])
        assert (record.ref_start, record.ref_end) == (10, 14)
        assert str(record.cigar) == "4="
        assert record.edit_distance == 0 and record.matches == 4

    def test_terminal_deletions_fold_into_coordinates(self):
        alignment = make_alignment("ACGT", "GGACGTC", "2D4=1D")
        record, = build_records([(make_candidate(ref_start=10), alignment)])
        assert str(record.cigar) == "4="
        assert (record.ref_start, record.ref_end) == (12, 16)
        assert record.edit_distance == 0

    def test_m_runs_resolved_before_emission(self):
        # Classic-M input: one mismatch hides inside the M run.
        alignment = make_alignment("ACGT", "ACTT", "4M")
        record, = build_records([(make_candidate(), alignment)])
        assert str(record.cigar) == "2=1X1="
        assert record.edit_distance == 1 and record.matches == 3

    def test_quality_reversed_on_minus_strand(self):
        alignment = make_alignment("ACGT", "ACGT", "4=")
        group = [(make_candidate(strand="-"), alignment)]
        record, = build_records(group, qualities={"read1": "IABC"})
        assert record.quality == "CBAI"

    def test_empty_group(self):
        assert build_records([]) == []


class TestGoldenSam:
    def test_exact_lines(self, genome):
        handle = io.StringIO()
        results = [
            (make_candidate(), make_alignment("ACGT", "ACGT", "4=")),
        ]
        count = write_sam(handle, results, genome, qualities={"read1": "IIII"})
        assert count == 1
        assert handle.getvalue().splitlines() == [
            "@HD\tVN:1.6\tSO:unknown",
            "@SQ\tSN:chr1\tLN:100",
            "@PG\tID:repro-genasm\tPN:repro-genasm",
            "read1\t0\tchr1\t11\t60\t4=\t*\t0\t0\tACGT\tIIII\tNM:i:0\tAS:i:8\ts1:i:50",
        ]

    def test_flags_for_strand_and_secondary(self, genome):
        handle = io.StringIO()
        alignment = make_alignment("ACGT", "ACGT", "4=")
        write_sam(
            handle,
            [
                (make_candidate(strand="-"), alignment),
                (
                    make_candidate(
                        ref_start=60, strand="-", chain_score=25.0, is_primary=False
                    ),
                    alignment,
                ),
            ],
            genome,
        )
        body = [l for l in handle.getvalue().splitlines() if not l.startswith("@")]
        flags = [int(line.split("\t")[1]) for line in body]
        assert flags[0] == FLAG_REVERSE
        assert flags[1] == FLAG_REVERSE | FLAG_SECONDARY

    def test_pos_is_one_based(self, genome):
        handle = io.StringIO()
        write_sam(
            handle,
            [(make_candidate(ref_start=0), make_alignment("ACGT", "ACGT", "4="))],
            genome,
        )
        body = [l for l in handle.getvalue().splitlines() if not l.startswith("@")]
        assert body[0].split("\t")[3] == "1"

    def test_unmapped_record_has_the_mandatory_fields(self, genome):
        handle = io.StringIO()
        emitter = SamEmitter(handle, genome)
        emitter.emit_unmapped("read9", "ACGTN", "II#II")
        emitter.emit_unmapped("read10", "")
        body = [l for l in handle.getvalue().splitlines() if not l.startswith("@")]
        # QNAME FLAG RNAME POS MAPQ CIGAR RNEXT PNEXT TLEN SEQ QUAL
        assert [line.split("\t") for line in body] == [
            ["read9", "4", "*", "0", "0", "*", "*", "0", "0", "ACGTN", "II#II"],
            ["read10", "4", "*", "0", "0", "*", "*", "0", "0", "*", "*"],
        ]


class TestSoftMaskedReads:
    def test_minus_strand_seq_is_the_reads_reverse_complement(self):
        # A reverse-strand read whose first 20 bases are soft-masked: its
        # `-` record's SEQ is the read's reverse complement, case included.
        # The aligner matches no lowercase base, so those 20 are X.
        genome = SyntheticGenome.random({"chr1": 20_000}, seed=0, repeat_fraction=0.0)
        forward = genome.fetch("chr1", 5_000, 5_150)
        read = reverse_complement(forward)
        read = read[:20].lower() + read[20:]
        handle = io.StringIO()
        StreamingPipeline(Mapper(genome), GenASMConfig.short_read(150)).run_all(
            [("masked", read, "I" * 150)], sink=SamSink(handle, genome)
        )
        records = [
            line.split("\t")
            for line in handle.getvalue().splitlines()
            if not line.startswith("@")
        ]
        primary = [fields for fields in records if int(fields[1]) == FLAG_REVERSE]
        assert len(primary) == 1
        assert (primary[0][3], primary[0][5]) == ("5001", "130=20X")
        for fields in records:
            if int(fields[1]) & FLAG_REVERSE:
                assert fields[9] == forward[:130] + forward[130:].lower()


class TestGoldenPaf:
    def test_exact_line(self, genome):
        handle = io.StringIO()
        count = write_paf(
            handle, [(make_candidate(), make_alignment("ACGT", "ACGT", "4="))], genome
        )
        assert count == 1
        assert handle.getvalue().splitlines() == [
            "read1\t4\t0\t4\t+\tchr1\t100\t10\t14\t4\t4\t60"
            "\tNM:i:0\tAS:i:8\ttp:A:P\tcg:Z:4=",
        ]

    def test_secondary_marker_and_mapq_zero(self, genome):
        handle = io.StringIO()
        alignment = make_alignment("ACGT", "ACGT", "4=")
        write_paf(
            handle,
            [
                (make_candidate(), alignment),
                (
                    make_candidate(
                        ref_start=60, chain_score=25.0, is_primary=False
                    ),
                    alignment,
                ),
            ],
            genome,
        )
        lines = handle.getvalue().splitlines()
        assert "\ttp:A:P\t" in lines[0] and "\ttp:A:S\t" in lines[1]
        assert lines[1].split("\t")[11] == "0"


class RecordingEmitter:
    def __init__(self):
        self.groups = []

    def emit_group(self, group):
        self.groups.append([candidate.read_name for candidate, _ in group])
        return list(group)


class TestGroupingSink:
    def _item(self, name, score=50.0, primary=True):
        return (
            make_candidate(name=name, chain_score=score, is_primary=primary),
            make_alignment("AC", "AC", "2="),
        )

    def test_eager_flushes_on_read_boundary(self):
        emitter = RecordingEmitter()
        sink = GroupingSink(emitter)
        sink.write(self._item("r1"))
        sink.write(self._item("r1", score=20.0, primary=False))
        assert emitter.groups == []  # r1 may still grow
        sink.write(self._item("r2"))
        assert emitter.groups == [["r1", "r1"]]
        sink.finish()
        assert emitter.groups == [["r1", "r1"], ["r2"]]
        assert sink.records == 3

    def test_reappearing_read_raises(self):
        sink = GroupingSink(RecordingEmitter())
        sink.write(self._item("r1"))
        sink.write(self._item("r2"))  # flushes r1
        with pytest.raises(ValueError, match="reappeared"):
            sink.write(self._item("r1"))

    @pytest.mark.parametrize("write", [write_sam, write_paf], ids=["sam", "paf"])
    def test_offline_writers_refuse_a_split_read(self, genome, write):
        # Grouped per contiguous run, r1 would be written twice as primary,
        # each fragment with its own MAPQ.
        items = [
            self._item("r1"),
            self._item("r2"),
            self._item("r1", score=20.0, primary=False),
        ]
        with pytest.raises(ValueError, match="reappeared"):
            write(io.StringIO(), items, genome)


class TestWorkloadEmission:
    """Spec-level checks over a real mapped+aligned workload."""

    @staticmethod
    def _assert_agrees_with_reference(seq, chromosome, start, cigar, nm, name):
        # Walk the CIGAR over SEQ and the reference from POS: every "="
        # base equals the reference, every "X" base differs, the walk
        # consumes all of SEQ, and NM counts X + I + D.
        q, r, edits = 0, start, 0
        for length, op in cigar.runs:
            if op is CigarOp.MATCH:
                assert seq[q : q + length] == chromosome[r : r + length], name
            elif op is CigarOp.MISMATCH:
                pairs = zip(seq[q : q + length], chromosome[r : r + length])
                assert all(base != ref for base, ref in pairs), name
            else:
                assert op in (CigarOp.INSERTION, CigarOp.DELETION, CigarOp.SOFT_CLIP), name
            if op.is_edit:
                edits += length
            q += length if op.consumes_pattern else 0
            r += length if op.consumes_text else 0
        assert q == len(seq), name
        assert nm == edits, name

    def test_sam_spec_level(self, workload, workload_results):
        handle = io.StringIO()
        count = write_sam(handle, workload_results, workload.genome)
        assert count == len(workload_results)
        lengths = {
            name: workload.genome.chromosome_length(name)
            for name in workload.genome.names()
        }
        primaries = []
        for line in handle.getvalue().splitlines():
            if line.startswith("@"):
                continue
            fields = line.split("\t")
            flag, pos = int(fields[1]), int(fields[3])
            cigar = Cigar.from_string(fields[5])
            assert cigar.pattern_length == len(fields[9])
            assert 1 <= pos and pos - 1 + cigar.text_length <= lengths[fields[2]]
            tags = dict(
                (tag.split(":", 2)[0], tag.split(":", 2)[2]) for tag in fields[11:]
            )
            assert int(tags["NM"]) == cigar.edit_distance
            self._assert_agrees_with_reference(
                fields[9], workload.genome.chromosomes[fields[2]], pos - 1, cigar,
                int(tags["NM"]), fields[0],
            )
            if not flag & FLAG_SECONDARY:
                primaries.append(fields[0])
        # Exactly one primary per mapped read.
        assert sorted(primaries) == sorted(
            {candidate.read_name for candidate, _ in workload_results}
        )

    # The fixture's SAM records are walked by test_sam_spec_level.
    @pytest.mark.parametrize("emitted", list(EMISSION_WORKLOADS), indirect=True)
    def test_sam_records_agree_with_reference(self, emitted):
        mapped, results = emitted
        handle = io.StringIO()
        assert write_sam(handle, results, mapped.genome) == len(results)
        records = [line for line in handle.getvalue().splitlines() if line[0] != "@"]
        assert len(records) == len(results)
        for line in records:
            fields = line.split("\t")
            tags = dict(
                (tag.split(":", 2)[0], tag.split(":", 2)[2]) for tag in fields[11:]
            )
            self._assert_agrees_with_reference(
                fields[9], mapped.genome.chromosomes[fields[2]], int(fields[3]) - 1,
                Cigar.from_string(fields[5]), int(tags["NM"]), fields[0],
            )

    @pytest.mark.parametrize(
        "emitted", ["fixture", *EMISSION_WORKLOADS], indirect=True
    )
    def test_paf_records_agree_with_reference(self, emitted):
        # The cg:Z CIGAR walks the read (in the strand's orientation) over
        # the target from its start column; the other columns are that
        # walk's counts.
        mapped, results = emitted
        handle = io.StringIO()
        assert write_paf(handle, results, mapped.genome) == len(results)
        lines = handle.getvalue().splitlines()
        assert len(lines) == len(results)
        for line in lines:
            fields = line.split("\t")
            name, strand, chrom = fields[0], fields[4], fields[5]
            qlen, qstart, qend = (int(f) for f in fields[1:4])
            tstart, tend = int(fields[7]), int(fields[8])
            matches, block = int(fields[9]), int(fields[10])
            tags = dict(
                (tag.split(":", 2)[0], tag.split(":", 2)[2]) for tag in fields[12:]
            )
            cigar = Cigar.from_string(tags["cg"])
            read = mapped.read_by_name[name].sequence
            seq = read if strand == "+" else reverse_complement(read)
            assert qlen == len(read) == cigar.pattern_length, name
            lead, trail = cigar.leading_clip, cigar.trailing_clip
            if strand == "-":
                lead, trail = trail, lead
            assert (qstart, qend) == (lead, qlen - trail), name
            assert tend - tstart == cigar.text_length, name
            assert matches == cigar.matches, name
            assert block == sum(n for n, op in cigar.runs if op is not CigarOp.SOFT_CLIP)
            self._assert_agrees_with_reference(
                seq, mapped.genome.chromosomes[chrom], tstart, cigar, int(tags["NM"]), name
            )

    def test_paf_spec_level(self, workload, workload_results):
        handle = io.StringIO()
        write_paf(handle, workload_results, workload.genome)
        for line in handle.getvalue().splitlines():
            fields = line.split("\t")
            qlen, qstart, qend = (int(f) for f in fields[1:4])
            tlen, tstart, tend = (int(f) for f in fields[6:9])
            matches, block = int(fields[9]), int(fields[10])
            assert 0 <= qstart < qend <= qlen
            assert 0 <= tstart < tend <= tlen
            assert tlen == workload.genome.chromosome_length(fields[5])
            assert 0 <= matches <= block

    def test_streamed_sink_matches_offline_bytes(self, workload):
        mapper = Mapper(workload.genome)
        streamed = io.StringIO()
        pipeline = StreamingPipeline(mapper, wave_size=64)
        results = pipeline.run_all(
            workload.reads, sink=SamSink(streamed, workload.genome)
        )
        offline = io.StringIO()
        write_sam(offline, results, workload.genome)
        assert streamed.getvalue() == offline.getvalue()

        paf_streamed = io.StringIO()
        StreamingPipeline(mapper, wave_size=64).run_all(
            workload.reads, sink=PafSink(paf_streamed, workload.genome)
        )
        paf_offline = io.StringIO()
        write_paf(paf_offline, results, workload.genome)
        assert paf_streamed.getvalue() == paf_offline.getvalue()

    def test_abandoned_run_does_not_finish_sink(self, workload):
        mapper = Mapper(workload.genome)
        handle = io.StringIO()
        sink = SamSink(handle, workload.genome)
        stream = StreamingPipeline(mapper, wave_size=8).run(workload.reads, sink=sink)
        next(stream)
        stream.close()
        # The sink must not have been finished: at most the groups already
        # completed by eager flushing may be present, and the last buffered
        # group must still be pending.
        assert sink._groups or sink.records < len(workload.candidates)
