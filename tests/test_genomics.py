"""Tests for the genomics substrate (sequences, errors, genome, reads, I/O)."""

import numpy as np
import pytest

from repro.genomics.errors import ErrorModel, mutate_sequence
from repro.genomics.fasta import read_fasta, read_fastq, write_fasta, write_fastq
from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import IlluminaSimulator, PacBioSimulator
from repro.genomics.sequences import (
    COMPLEMENT,
    decode_sequence,
    encode_sequence,
    gc_content,
    kmers,
    random_dna,
    reverse_complement,
)


class TestSequences:
    def test_random_dna_alphabet_and_length(self):
        seq = random_dna(500, np.random.default_rng(0))
        assert len(seq) == 500
        assert set(seq) <= set("ACGT")

    def test_random_dna_deterministic_with_seed(self):
        a = random_dna(100, np.random.default_rng(7))
        b = random_dna(100, np.random.default_rng(7))
        assert a == b

    def test_reverse_complement(self):
        assert reverse_complement("ACGT") == "ACGT"
        assert reverse_complement("AACG") == "CGTT"
        assert reverse_complement("ANT") == "ANT"

    def test_reverse_complement_matches_the_generator_reference(self):
        # The per-character generator reverse_complement used to be, with
        # soft-masked acgtn complemented to lowercase; every other
        # character outside ACGTN becomes N.
        def reference(sequence):
            return "".join(
                COMPLEMENT[c.upper()].lower()
                if c in "acgtn"
                else COMPLEMENT.get(c, "N")
                for c in reversed(sequence)
            )

        assert reverse_complement("acgtnu") == "Nnacgt"
        classes = [
            "ACGTN",  # the table
            "acgtnu",  # lowercase
            "RYKMSWBDHVX-.*",  # IUPAC codes and gap symbols
            "0123456789 \t\n\r\x00\x7f",  # digits, whitespace, controls
            "\x80\xa0éßÿ",  # Latin-1
            "ĀΩЖ中\u200b\ud800",  # wider BMP, a zero-width space, a lone surrogate
            "😀\U0010ffff",  # astral
        ]
        rng = np.random.default_rng(11)
        alphabet = "".join(classes)
        samples = ["", *classes, alphabet]
        samples += [
            "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 40))))
            for _ in range(400)
        ]
        for sample in samples:
            assert reverse_complement(sample) == reference(sample), repr(sample)
        for code_point in range(0x300):
            base = "AC" + chr(code_point) + "gT"
            assert reverse_complement(base) == reference(base), code_point

    def test_reverse_complement_involution(self):
        seq = random_dna(200, np.random.default_rng(1))
        assert reverse_complement(reverse_complement(seq)) == seq
        masked = seq[:50] + seq[50:120].lower() + "Nn" + seq[120:]
        assert reverse_complement(reverse_complement(masked)) == masked

    def test_encode_decode_roundtrip(self):
        seq = "ACGTACGTTTGCA"
        assert decode_sequence(encode_sequence(seq)) == seq

    def test_gc_content(self):
        assert gc_content("GGCC") == 1.0
        assert gc_content("AATT") == 0.0
        assert gc_content("") == 0.0

    def test_kmers(self):
        assert list(kmers("ACGT", 2)) == [(0, "AC"), (1, "CG"), (2, "GT")]
        with pytest.raises(ValueError):
            list(kmers("ACGT", 0))


class TestErrorModel:
    def test_total_rate_and_accuracy(self):
        model = ErrorModel(0.01, 0.02, 0.03)
        assert model.total_rate == pytest.approx(0.06)
        assert model.accuracy == pytest.approx(0.94)

    def test_invalid_rates_raise(self):
        with pytest.raises(ValueError):
            ErrorModel(substitution_rate=-0.1)
        with pytest.raises(ValueError):
            ErrorModel(0.5, 0.4, 0.3)

    def test_exact_model_introduces_no_errors(self):
        rng = np.random.default_rng(0)
        seq = random_dna(300, rng)
        mutated, cigar = mutate_sequence(seq, ErrorModel.exact(), rng)
        assert mutated == seq
        assert cigar.edit_distance == 0

    def test_presets_follow_their_platforms(self):
        # PacBio CLR: ~10 %, insertion-dominated.  Illumina: ~0.5 %,
        # substitution-dominated.
        clr = ErrorModel.pacbio_clr()
        assert clr.total_rate == pytest.approx(0.10)
        assert clr.insertion_rate > max(clr.deletion_rate, clr.substitution_rate)
        illumina = ErrorModel.illumina()
        assert illumina.total_rate == pytest.approx(0.005)
        assert illumina.substitution_rate > illumina.insertion_rate + illumina.deletion_rate

    def test_mutation_rate_roughly_matches_model(self):
        rng = np.random.default_rng(3)
        seq = random_dna(20_000, rng)
        model = ErrorModel.pacbio_clr()
        mutated, cigar = mutate_sequence(seq, model, rng)
        observed = cigar.edit_distance / len(seq)
        assert 0.6 * model.total_rate < observed < 1.5 * model.total_rate

    def test_cigar_consistent_with_sequences(self):
        rng = np.random.default_rng(5)
        seq = random_dna(500, rng)
        mutated, cigar = mutate_sequence(seq, ErrorModel.pacbio_clr(), rng)
        cigar.validate(mutated, seq, partial_text=False)


class TestSyntheticGenome:
    def test_lengths_and_names(self):
        genome = SyntheticGenome.random({"a": 5_000, "b": 3_000}, seed=1, repeat_fraction=0.0)
        assert genome.names() == ["a", "b"]
        assert genome.total_length == 8_000

    def test_deterministic_for_seed(self):
        g1 = SyntheticGenome.random({"a": 2_000}, seed=9, repeat_fraction=0.0)
        g2 = SyntheticGenome.random({"a": 2_000}, seed=9, repeat_fraction=0.0)
        assert g1.sequence("a") == g2.sequence("a")

    def test_repeats_are_annotated(self):
        genome = SyntheticGenome.random(
            {"a": 30_000}, seed=2, repeat_fraction=0.2, repeat_length=1_000
        )
        assert len(genome.repeats) >= 3
        for repeat in genome.repeats:
            assert repeat.length == 1_000

    def test_fetch_clamps(self):
        genome = SyntheticGenome.random({"a": 1_000}, seed=0, repeat_fraction=0.0)
        assert genome.fetch("a", -10, 5) == genome.sequence("a")[:5]
        assert genome.fetch("a", 990, 2_000) == genome.sequence("a")[990:]
        assert genome.fetch("a", 500, 400) == ""

    def test_random_location_fits(self):
        genome = SyntheticGenome.random({"a": 2_000, "b": 500}, seed=0, repeat_fraction=0.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            chrom, start = genome.random_location(600, rng)
            assert chrom == "a"
            assert 0 <= start <= 1_400

    def test_random_location_too_long_raises(self):
        genome = SyntheticGenome.random({"a": 100}, seed=0, repeat_fraction=0.0)
        with pytest.raises(ValueError):
            genome.random_location(500)


class TestReadSimulators:
    def test_pacbio_reads_have_ground_truth(self):
        genome = SyntheticGenome.random({"a": 50_000}, seed=4, repeat_fraction=0.0)
        reads = PacBioSimulator(mean_length=2_000, std_length=300, seed=11).simulate(genome, 10)
        assert len(reads) == 10
        for read in reads:
            assert len(read.sequence) == len(read.quality)
            assert read.chrom == "a"
            assert 0 <= read.start < read.end <= 50_000
            assert read.true_edits >= 0
            # Read should resemble its origin: edit rate bounded by ~3x model.
            assert read.true_edits < 0.35 * len(read.sequence)

    def test_pacbio_length_distribution(self):
        genome = SyntheticGenome.random({"a": 200_000}, seed=4, repeat_fraction=0.0)
        reads = PacBioSimulator(mean_length=3_000, std_length=500, seed=2).simulate(genome, 30)
        mean_len = sum(r.length for r in reads) / len(reads)
        assert 2_000 < mean_len < 4_500

    def test_reverse_strand_reads_marked(self):
        genome = SyntheticGenome.random({"a": 100_000}, seed=4, repeat_fraction=0.0)
        reads = PacBioSimulator(mean_length=1_000, seed=5).simulate(genome, 40)
        strands = {read.strand for read in reads}
        assert strands == {"+", "-"}

    def test_illumina_reads_fixed_length_low_error(self):
        genome = SyntheticGenome.random({"a": 50_000}, seed=4, repeat_fraction=0.0)
        reads = IlluminaSimulator(read_length=150, seed=3).simulate(genome, 20)
        assert all(abs(r.length - 150) <= 5 for r in reads)
        assert sum(r.true_edits for r in reads) / (20 * 150) < 0.05

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            PacBioSimulator(mean_length=0)
        with pytest.raises(ValueError):
            IlluminaSimulator(read_length=0)


class TestFastaFastq:
    def test_fasta_roundtrip(self, tmp_path):
        records = {"seq1": "ACGT" * 30, "seq2": "TTTT"}
        path = tmp_path / "test.fa"
        write_fasta(path, records, width=50)
        assert read_fasta(path) == records

    def test_fasta_parses_wrapped_and_headers_with_descriptions(self, tmp_path):
        path = tmp_path / "wrapped.fa"
        path.write_text(">chr1 some description\nACGT\nACGT\n>chr2\nTTTT\n")
        records = read_fasta(path)
        assert records == {"chr1": "ACGTACGT", "chr2": "TTTT"}

    def test_fasta_without_header_raises(self, tmp_path):
        path = tmp_path / "bad.fa"
        path.write_text("ACGT\n")
        with pytest.raises(ValueError):
            read_fasta(path)

    def test_fastq_roundtrip(self, tmp_path):
        records = [("r1", "ACGT", "IIII"), ("r2", "GG", "##")]
        path = tmp_path / "test.fq"
        write_fastq(path, records)
        assert read_fastq(path) == records

    def test_fastq_length_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.fq"
        with pytest.raises(ValueError):
            write_fastq(path, [("r1", "ACGT", "II")])

    def test_fasta_duplicate_name_raises(self, tmp_path):
        path = tmp_path / "dup.fa"
        path.write_text(">chr1\nACGT\n>chr2\nGGGG\n>chr1\nTTTT\n")
        with pytest.raises(ValueError, match="duplicate sequence name 'chr1'"):
            read_fasta(path)

    def test_fastq_mid_file_blank_line_raises(self, tmp_path):
        path = tmp_path / "blank.fq"
        path.write_text("@r1\nACGT\n+\nIIII\n\n@r2\nGGGG\n+\nIIII\n")
        with pytest.raises(ValueError, match="blank line"):
            read_fastq(path)

    def test_fastq_trailing_blank_lines_are_eof(self, tmp_path):
        path = tmp_path / "trail.fq"
        path.write_text("@r1\nACGT\n+\nIIII\n\n\n")
        assert read_fastq(path) == [("r1", "ACGT", "IIII")]

    def test_simulated_reads_roundtrip_through_fastq(self, tmp_path):
        genome = SyntheticGenome.random({"a": 20_000}, seed=4, repeat_fraction=0.0)
        reads = PacBioSimulator(mean_length=500, seed=1).simulate(genome, 5)
        path = tmp_path / "reads.fq"
        write_fastq(path, [(r.name, r.sequence, r.quality) for r in reads])
        loaded = read_fastq(path)
        assert [name for name, _, _ in loaded] == [r.name for r in reads]
        assert all(seq == r.sequence for (_, seq, _), r in zip(loaded, reads))
