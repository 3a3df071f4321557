"""Tests for minimizer extraction, indexing, chaining and the mapper.

The array code is held to the loop references in
``tests/reference_mapping.py`` (the per-object index, lookup and
chaining DP it replaced): generated minimizer strings, anchor sets and
whole mapping cases must agree field for field, chain scores bit for bit.
The property tests take their example counts from the hypothesis profile
(``tests/conftest.py``): bounded in tier-1, ten times longer under
``--hypothesis-profile=ci``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.genomics.genome import SyntheticGenome
from repro.genomics.read_simulator import PacBioSimulator
from repro.genomics.sequences import random_dna, reverse_complement
from repro.mapping.chaining import chain_anchors
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import Mapper
from repro.mapping.minimizers import extract_minimizers, kmer_hashes
from tests import reference_mapping as ref


class TestMinimizers:
    def test_extraction_positions_in_range(self):
        seq = random_dna(2_000, np.random.default_rng(0))
        minimizers = extract_minimizers(seq, k=15, w=10)
        assert len(minimizers.positions)
        assert minimizers.positions.min() >= 0
        assert minimizers.positions.max() <= len(seq) - 15

    def test_density_roughly_two_over_w_plus_one(self):
        seq = random_dna(50_000, np.random.default_rng(1))
        w = 10
        minimizers = extract_minimizers(seq, k=15, w=w)
        density = len(minimizers.positions) / (len(seq) - 15 + 1)
        assert 1.0 / (w + 1) < density < 4.0 / (w + 1)

    def test_canonical_hashes_strand_invariant(self):
        seq = random_dna(300, np.random.default_rng(2))
        fwd = set(int(h) for h in kmer_hashes(seq, 15))
        rev = set(int(h) for h in kmer_hashes(reverse_complement(seq), 15))
        assert fwd == rev

    def test_shared_minimizers_between_overlapping_sequences(self):
        seq = random_dna(3_000, np.random.default_rng(3))
        a = set(extract_minimizers(seq[:2_000]).hashes.tolist())
        b = set(extract_minimizers(seq[1_000:]).hashes.tolist())
        assert len(a & b) > 10

    def test_short_sequence_returns_empty(self):
        minimizers = extract_minimizers("ACGT", k=15, w=10)
        assert [len(array) for array in minimizers] == [0, 0, 0]

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            extract_minimizers("ACGT" * 10, k=0)
        with pytest.raises(ValueError):
            extract_minimizers("ACGT" * 10, k=15, w=0)
        with pytest.raises(ValueError):
            kmer_hashes("ACGT" * 10, 40)

    @settings(deadline=None)
    @given(
        sequence=st.text(alphabet="ACGTNacgtn", max_size=300),
        k=st.integers(1, 31),
        w=st.integers(1, 24),
    )
    def test_matches_the_rolling_kmer_reference(self, sequence, k, w):
        got = extract_minimizers(sequence, k, w)
        assert list(zip(*(array.tolist() for array in got))) == ref.extract_minimizers(
            sequence, k, w
        )


def _repeat_rich_genome(seed=5):
    return SyntheticGenome.random(
        {"a": 12_000, "b": 6_000, "c": 900},
        seed=seed,
        repeat_fraction=0.3,
        repeat_length=400,
    )


class TestIndex:
    def test_lookup_finds_own_minimizers(self):
        genome = SyntheticGenome.random({"a": 20_000}, seed=5, repeat_fraction=0.0)
        index = MinimizerIndex.build(genome)
        minimizers = extract_minimizers(genome.sequence("a"))
        query, _ = index.lookup(minimizers.hashes[:50])
        assert len(np.unique(query)) >= 45

    def test_frequency_filter_drops_repetitive_seeds(self):
        genome = SyntheticGenome(chromosomes={"a": "ACGTACGTAC" * 2_000})
        index = MinimizerIndex.build(genome, max_occurrences=4)
        assert index.dropped_minimizers > 0

    def test_contains_and_len(self):
        genome = SyntheticGenome.random({"a": 5_000}, seed=5, repeat_fraction=0.0)
        index = MinimizerIndex.build(genome)
        assert len(index) > 0
        some_hash = extract_minimizers(genome.sequence("a")).hashes[:1]
        assert int(some_hash[0]) in index
        assert 0xDEADBEEF_DEADBEEF not in index
        query, rows = index.lookup(some_hash)
        assert query.tolist() == [0] * len(rows) and len(rows) >= 1
        assert [len(a) for a in index.lookup(np.array([0xDEADBEEF_DEADBEEF], np.uint64))] == [0, 0]
        assert [len(a) for a in index.lookup(np.empty(0, np.uint64))] == [0, 0]

    @pytest.mark.parametrize("max_occurrences", [1, 3, 64])
    def test_matches_the_dict_reference(self, max_occurrences):
        genome = _repeat_rich_genome()
        index = MinimizerIndex.build(genome, 13, 6, max_occurrences=max_occurrences)
        table = ref.build_dict_index(genome, 13, 6, max_occurrences)
        everything = ref.build_dict_index(genome, 13, 6, 10**9)
        assert sorted(table) == index.hashes.tolist()
        assert len(index) == len(table)
        assert index.indexed_minimizers == sum(len(hits) for hits in table.values())
        assert index.dropped_minimizers == sum(
            len(hits) for h, hits in everything.items() if h not in table
        )
        assert index.dropped_minimizers > 0 or max_occurrences == 64
        assert all(h in index for h in table)
        assert not any(h in index for h in everything if h not in table)
        # One search for every hash, plus one the genome does not hold.
        keys = list(table) + [0xDEADBEEF_DEADBEEF]
        query, rows = index.lookup(np.array(keys, dtype=np.uint64))
        got = [[] for _ in keys]
        for q, row in zip(query.tolist(), rows.tolist()):
            got[q].append(
                ref.IndexHit(
                    index.chrom_names[index.hit_chrom[row]],
                    int(index.hit_pos[row]),
                    int(index.hit_strand[row]),
                )
            )
        assert got == [table[h] for h in keys[:-1]] + [[]]

    def test_build_rejects_non_positive_max_occurrences(self):
        genome = SyntheticGenome.random({"a": 1_000}, seed=5, repeat_fraction=0.0)
        with pytest.raises(ValueError, match="max_occurrences"):
            MinimizerIndex.build(genome, max_occurrences=0)


def _chain(anchors, **kwargs):
    q = np.array([a[0] for a in anchors], dtype=np.int64)
    r = np.array([a[1] for a in anchors], dtype=np.int64)
    return chain_anchors(q, r, **kwargs)


@st.composite
def anchor_groups(draw):
    """One chaining group plus the DP limits, drawn to hit every edge.

    Anchors walk a diagonal with query steps of exactly ``max_gap`` and
    ``max_gap + 1`` and diagonal shifts of exactly ``max_diagonal_drift``
    and one more; the walk also repeats earlier anchors (equal candidate
    scores) and drops in off-diagonal anchors that no later anchor can
    follow, which push legal predecessors to the edge of the window.  Or
    the anchors scatter over a small box.  Groups run past the
    50-predecessor window.
    """
    max_gap = draw(st.one_of(st.integers(2, 40), st.integers(100, 2_000)))
    drift = draw(st.integers(0, 12))
    params = {
        "length": draw(st.integers(1, 16)),
        "max_gap": max_gap,
        "max_diagonal_drift": drift,
        "max_predecessors": draw(st.sampled_from([0, 1, 2, 3, 7, 50])),
        "min_chain_anchors": draw(st.integers(1, 4)),
    }
    params["min_chain_score"] = draw(
        st.sampled_from([0.0, float(params["length"]), 2.5 * params["length"]])
    )
    if draw(st.booleans()):
        anchors = draw(
            st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=120)
        )
        return anchors, params
    step_q = st.sampled_from([0, 1, 2, 3, max(1, max_gap - 1), max_gap, max_gap + 1])
    shift = st.sampled_from([0, 0, 1, -1, drift, -drift, drift + 1, -(drift + 1)])
    kind = st.sampled_from(["step", "step", "repeat", "blocker"])
    moves = draw(st.lists(st.tuples(step_q, shift, kind), max_size=130))
    q, r = draw(st.integers(0, 50)), draw(st.integers(0, 50))
    anchors = [(q, r)]
    for dq, extra, what in moves:
        if what == "repeat":
            anchors.append(anchors[draw(st.integers(0, len(anchors) - 1))])
        elif what == "blocker":
            # Sorts between walk anchors by reference position, but its
            # query position is past every walk anchor's.
            anchors.append((10**6 - len(anchors), r + draw(st.integers(0, 2))))
        else:
            q, r = q + dq, r + dq + extra
            anchors.append((q, r))
    order = draw(st.permutations(range(len(anchors))))
    return [anchors[i] for i in order], params


def assert_same_chains(anchors, params):
    length = params["length"]
    limits = {key: value for key, value in params.items() if key != "length"}
    objects = [ref.Anchor(q, r, 1, length) for q, r in anchors]
    want = ref.chain_anchors(objects, **limits)
    got = _chain(anchors, **params)
    ids = {id(a): n for n, a in enumerate(objects)}
    assert [c.score for c in got] == [c.score for c in want]
    assert [c.members for c in got] == [[ids[id(a)] for a in c.anchors] for c in want]
    assert [(c.query_start, c.query_end, c.ref_start, c.ref_end) for c in got] == [
        (c.query_start, c.query_end, c.ref_start, c.ref_end) for c in want
    ]


class TestChaining:
    def test_colinear_anchors_form_one_chain(self):
        anchors = [(i * 50, 1_000 + i * 50) for i in range(10)]
        chains = _chain(anchors, min_chain_score=30)
        assert len(chains) == 1
        assert len(chains[0]) == 10

    def test_off_diagonal_anchors_are_split(self):
        near = [(i * 50, i * 50) for i in range(8)]
        far = [(i * 50, 500_000 + i * 50) for i in range(8)]
        chains = _chain(near + far, min_chain_score=30)
        assert len(chains) == 2

    def test_low_scoring_chains_filtered(self):
        assert _chain([(0, 0)], min_chain_score=40) == []

    def test_empty_input(self):
        assert _chain([]) == []

    def test_chain_span_properties(self):
        anchors = [(i * 20, 100 + i * 20) for i in range(5)]
        chain = _chain(anchors, min_chain_score=10, min_chain_anchors=2)[0]
        assert chain.query_start == 0
        assert chain.ref_start == 100
        assert chain.ref_end == 100 + 4 * 20 + 15
        assert chain.query_end == 4 * 20 + 15

    @pytest.mark.parametrize("max_predecessors", [1, 3, 50])
    @pytest.mark.parametrize("inside", [True, False])
    def test_predecessor_window_edge(self, max_predecessors, inside):
        # Anchor (0, 0) is the only legal predecessor of (200, 200); the
        # blockers sort between them but no anchor can follow them.  So
        # the pair chains exactly when (0, 0) is inside the window.
        count = max_predecessors - 1 if inside else max_predecessors
        anchors = [(0, 0)] + [(1_000 - t, 1 + t) for t in range(count)] + [(200, 200)]
        params = {
            "length": 15,
            "max_gap": 2_000,
            "max_diagonal_drift": 500,
            "max_predecessors": max_predecessors,
            "min_chain_score": 0.0,
            "min_chain_anchors": 2,
        }
        assert_same_chains(anchors, params)
        chains = _chain(anchors, **params)
        assert [c.members for c in chains] == ([[0, count + 1]] if inside else [])

    @pytest.mark.parametrize("count", [50, 51, 52, 120])
    def test_dense_groups_past_the_window(self, count):
        anchors = [(i, i + (i % 3)) for i in range(count)] + [(5, 5)] * 3
        assert_same_chains(
            anchors,
            {
                "length": 15,
                "max_gap": 2_000,
                "max_diagonal_drift": 1,
                "max_predecessors": 50,
                "min_chain_score": 0.0,
                "min_chain_anchors": 1,
            },
        )

    @settings(deadline=None)
    @given(anchor_groups())
    def test_matches_the_scalar_dp(self, case):
        anchors, params = case
        assert_same_chains(anchors, params)


@st.composite
def mapping_cases(draw):
    """A small repeat-rich genome, mapper settings and reads drawn on it.

    Reads are genome slices on either strand with substitutions, ``N``
    runs and lowercase stretches, or shorter than ``k``, or empty.
    """
    seed = draw(st.integers(0, 2**16))
    lengths = draw(st.sampled_from([(3_000,), (2_500, 1_500), (2_000, 800, 300)]))
    genome = SyntheticGenome.random(
        {f"chr{i}": n for i, n in enumerate(lengths)},
        seed=seed,
        repeat_fraction=draw(st.sampled_from([0.0, 0.2, 0.45])),
        repeat_length=draw(st.sampled_from([120, 400])),
    )
    settings_ = {
        "k": draw(st.integers(8, 17)),
        "w": draw(st.integers(1, 12)),
        "max_occurrences": draw(st.sampled_from([1, 2, 4, 64])),
        "min_chain_score": draw(st.sampled_from([10.0, 25.0, 40.0])),
        "min_chain_anchors": draw(st.integers(1, 4)),
    }
    rng = np.random.default_rng(seed)
    reads = []
    for n in range(draw(st.integers(1, 4))):
        chrom = genome.names()[draw(st.integers(0, len(lengths) - 1))]
        size = draw(st.sampled_from([0, 5, 60, 150, 700]))
        start = draw(st.integers(0, max(0, genome.chromosome_length(chrom) - size)))
        read = list(genome.fetch(chrom, start, start + size))
        for position in rng.integers(0, max(1, len(read)), size=len(read) // 25):
            if read:
                read[position] = "ACGT"[rng.integers(0, 4)]
        read = "".join(read)
        if draw(st.booleans()):
            read = reverse_complement(read)
        edit = draw(st.sampled_from(["none", "n_run", "lower"]))
        if edit == "n_run" and read:
            at = len(read) // 3
            read = read[:at] + "N" * 20 + read[at:]
        elif edit == "lower":
            read = read[: len(read) // 2] + read[len(read) // 2 :].lower()
        reads.append((f"r{n}", read))
    return genome, settings_, reads


class TestMapper:
    @pytest.fixture(scope="class")
    def pipeline(self):
        genome = SyntheticGenome.random(
            {"chr1": 80_000, "chr2": 40_000}, seed=6, repeat_fraction=0.05, repeat_length=1_000
        )
        reads = PacBioSimulator(mean_length=1_500, std_length=200, seed=8).simulate(genome, 12)
        mapper = Mapper(genome)
        return genome, reads, mapper

    def test_primary_candidates_hit_true_location(self, pipeline):
        genome, reads, mapper = pipeline
        correct = 0
        for read in reads:
            candidates = mapper.map_read(read)
            if not candidates:
                continue
            best = candidates[0]
            if (
                best.chrom == read.chrom
                and best.strand == read.strand
                and abs(best.ref_start - read.start) < 300
            ):
                correct += 1
        assert correct >= len(reads) - 2

    def test_candidate_regions_cover_read_length(self, pipeline):
        genome, reads, mapper = pipeline
        for read in reads[:5]:
            for candidate in mapper.map_read(read):
                assert candidate.span >= 0.8 * read.length

    def test_candidate_region_sequence_orientation(self, pipeline):
        genome, reads, mapper = pipeline
        read = reads[0]
        candidates = mapper.map_read(read)
        assert candidates
        pattern, text = mapper.candidate_region_sequence(candidates[0], read.sequence)
        assert len(text) == candidates[0].span
        if candidates[0].strand == "+":
            assert pattern == read.sequence
        else:
            assert pattern == reverse_complement(read.sequence)

    def test_all_chains_reports_at_least_primary(self, pipeline):
        genome, reads, mapper = pipeline
        total = mapper.map_reads(reads)
        assert len(total) >= sum(1 for r in reads if mapper.map_read(r))

    def test_unmappable_read_returns_empty(self, pipeline):
        genome, _, mapper = pipeline
        random_read = random_dna(500, np.random.default_rng(99))
        # A random sequence should rarely chain anywhere on this small genome.
        assert len(mapper.map_sequence("random", random_read)) <= 1

    def test_index_is_built_with_the_mapper_parameters(self):
        genome = SyntheticGenome.random({"a": 20_000}, seed=5, repeat_fraction=0.0)
        mapper = Mapper(genome, k=13, w=5, max_occurrences=8)
        index = MinimizerIndex.build(genome, 13, 5, max_occurrences=8)
        assert (mapper.index.k, mapper.index.w, mapper.index.max_occurrences) == (13, 5, 8)
        for name in ("hashes", "starts", "hit_chrom", "hit_pos", "hit_strand"):
            assert np.array_equal(getattr(mapper.index, name), getattr(index, name)), name

    @settings(deadline=None)
    @given(mapping_cases())
    def test_matches_the_loop_reference(self, case):
        genome, params, reads = case
        mapper = Mapper(genome, **params)
        table = ref.build_dict_index(genome, params["k"], params["w"], params["max_occurrences"])
        for name, sequence in reads:
            want = ref.map_sequence(
                name,
                sequence,
                genome,
                table,
                k=params["k"],
                w=params["w"],
                min_chain_score=params["min_chain_score"],
                min_chain_anchors=params["min_chain_anchors"],
            )
            assert mapper.map_sequence(name, sequence) == want


class TestChainGuards:
    def test_empty_chain_coordinates_raise_clearly(self):
        from repro.mapping.chaining import Chain

        with pytest.raises(ValueError, match="no anchors"):
            Chain(0.0, [], 0, 0, 0, 0)

    def test_chain_anchors_never_emits_empty_chains(self):
        anchors = [(q, q + 50) for q in range(0, 600, 30)]
        chains = _chain(anchors)
        assert chains
        for chain in chains:
            assert len(chain) > 0
            assert chain.query_start <= chain.query_end  # coordinates usable


class TestMappingConfidence:
    def _candidate(self, score, primary=False):
        from repro.mapping.mapper import CandidateMapping

        return CandidateMapping("r", "a", 0, 100, "+", score, 10, primary)

    def test_unique_candidate(self):
        from repro.mapping.mapper import mapping_confidence

        index, primary, secondary = mapping_confidence([self._candidate(80.0, True)])
        assert (index, primary, secondary) == (0, 80.0, 0.0)

    def test_gap_between_best_and_second_best(self):
        from repro.mapping.mapper import mapping_confidence

        candidates = [
            self._candidate(90.0, True),
            self._candidate(60.0),
            self._candidate(30.0),
        ]
        assert mapping_confidence(candidates) == (0, 90.0, 60.0)

    def test_primary_flag_beats_raw_score(self):
        from repro.mapping.mapper import mapping_confidence

        # The mapper's election is authoritative even if a later rescoring
        # left a secondary with the numerically larger chain score.
        candidates = [self._candidate(50.0, True), self._candidate(70.0)]
        index, primary, secondary = mapping_confidence(candidates)
        assert index == 0 and primary == 50.0 and secondary == 70.0

    def test_empty_group_raises(self):
        from repro.mapping.mapper import mapping_confidence

        with pytest.raises(ValueError, match="at least one candidate"):
            mapping_confidence([])
