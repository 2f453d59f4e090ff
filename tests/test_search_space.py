import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcnas.search_space import (
    Architecture,
    SearchSpaceSpec,
    SegmentPlan,
    Subspace,
    SuperCell,
    default_initial_architecture,
    default_space,
    full_subspace,
    gray_code_table,
    make_segment_plan,
    materialize,
    sample_uniform,
)
from conftest import (
    ALL_FIXED,
    cell_hamming,
    digits_of_reference,
    extract_digits,
    gray_encode,
    index_of_reference,
    materialize_reference,
    subspaces,
)


class TestSearchSpaceSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SearchSpaceSpec(0, 6)
        with pytest.raises(ValueError):
            SearchSpaceSpec(3, 1)
        with pytest.raises(ValueError):
            SearchSpaceSpec(3, 6, ("a", "b"))

    def test_bits_per_cell(self):
        assert SearchSpaceSpec(1, 2).bits_per_cell == 1
        assert SearchSpaceSpec(1, 4).bits_per_cell == 2
        assert SearchSpaceSpec(1, 6).bits_per_cell == 3
        assert SearchSpaceSpec(1, 8).bits_per_cell == 3
        assert SearchSpaceSpec(1, 9).bits_per_cell == 4

    def test_default_space_feature_dim_is_57(self):
        assert default_space().feature_dim == 57

    def test_default_initial_architecture(self):
        spec = default_space()
        initial = default_initial_architecture(spec)
        assert initial.choices == (1,) * 19
        assert spec.choice_labels[initial.choices[0]] == "k3_e6"
        plain = SearchSpaceSpec(5, 4)
        assert default_initial_architecture(plain).choices == (0,) * 5

    def test_validate_architecture(self):
        spec = SearchSpaceSpec(3, 6)
        spec.validate_architecture(Architecture((0, 5, 3)))
        with pytest.raises(ValueError):
            spec.validate_architecture(Architecture((0, 5)))
        with pytest.raises(ValueError):
            spec.validate_architecture(Architecture((0, 6, 3)))


class TestArchitectureText:
    def test_roundtrip(self):
        arch = Architecture((1, 3, 0, 5))
        assert arch.to_text() == "1,3,0,5"
        assert Architecture.from_text("1,3,0,5") == arch

    def test_malformed(self):
        with pytest.raises(ValueError):
            Architecture.from_text("1,x,3")


class TestGrayEncoding:
    def test_zero_architecture(self):
        spec = SearchSpaceSpec(3, 6)
        bits = gray_encode(Architecture((0, 0, 0)), spec)
        assert bits.tolist() == [0] * 9

    def test_reflected_sequence(self):
        # binary-reflected sequence for 6 of 8 codes: 000,001,011,010,110,111
        spec = SearchSpaceSpec(3, 6)
        bits = gray_encode(Architecture((5, 4, 3)), spec)
        assert bits.tolist() == [1, 1, 1, 1, 1, 0, 0, 1, 0]

    def test_feature_vector_is_57_bits(self):
        spec = default_space()
        arch = Architecture(tuple(np.random.default_rng(0).integers(0, 6, 19)))
        assert gray_encode(arch, spec).shape == (57,)

    @given(st.integers(min_value=2, max_value=16))
    def test_consecutive_codes_differ_in_one_bit(self, num_codes):
        bits = max(1, (num_codes - 1).bit_length())
        table = gray_code_table(num_codes, bits)
        for i in range(num_codes - 1):
            assert int(np.sum(table[i] != table[i + 1])) == 1

    def test_table_rejects_too_many_codes(self):
        with pytest.raises(ValueError):
            gray_code_table(9, 3)


class TestCellHamming:
    def test_examples(self):
        assert cell_hamming(Architecture((0, 1, 2)), Architecture((0, 1, 2))) == 0
        assert cell_hamming(Architecture((0, 1, 2)), Architecture((0, 1, 3))) == 1
        assert cell_hamming(Architecture((0, 0, 0)), Architecture((5, 5, 5))) == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cell_hamming(Architecture((0, 1)), Architecture((0, 1, 2)))


class TestSubspace:
    def test_partition_enforced(self):
        spec = SearchSpaceSpec(3, 6)
        with pytest.raises(ValueError):
            Subspace(spec, (0, 1), {})  # cell 2 unclaimed
        with pytest.raises(ValueError):
            Subspace(spec, (0, 1), {1: 2, 2: 0})  # cell 1 claimed twice

    def test_node_count(self):
        spec = default_space()
        sub = Subspace(spec, tuple(range(7)), {p: 1 for p in range(7, 19)})
        assert sub.node_count == 6**7 == 279936

        sc = SuperCell((0, 1), ((0, 0), (1, 2), (3, 3)))
        spec4 = SearchSpaceSpec(4, 6)
        sub2 = Subspace(spec4, (2,), {3: 0}, (sc,))
        assert sub2.node_count == 6 * 3

    def test_fixed_choice_validated(self):
        with pytest.raises(ValueError):
            Subspace(SearchSpaceSpec(2, 4), (0,), {1: 4})

    def test_supercell_invariants(self):
        with pytest.raises(ValueError):
            SuperCell((1, 0), ((0, 0),))  # not increasing
        with pytest.raises(ValueError):
            SuperCell((0, 1), ((0, 0), (0, 0)))  # duplicate candidates
        with pytest.raises(ValueError):
            SuperCell((0, 1), ((0,),))  # wrong arity


class TestSampleUniform:
    def test_exhaustive_covers_every_node(self):
        sub = Subspace(SearchSpaceSpec(2, 4), (0, 1), {})
        rows = sample_uniform(sub, 16, seed=5)
        assert rows.shape == (16, 2)
        assert len({tuple(row) for row in rows.tolist()}) == 16

    def test_deterministic_in_seed(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1, 2), {})
        assert np.array_equal(sample_uniform(sub, 20, seed=9), sample_uniform(sub, 20, seed=9))
        assert not np.array_equal(sample_uniform(sub, 20, seed=9), sample_uniform(sub, 20, seed=10))

    def test_oversampling_names_both_quantities(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1), {2: 0})
        with pytest.raises(ValueError, match="37.*36"):
            sample_uniform(sub, 37, seed=0)


class TestMaterialize:
    def test_free_and_fixed(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1), {2: 4})
        assert materialize(sub, [1, 3]).choices == (1, 3, 4)

    def test_supercell_expansion(self):
        sc = SuperCell((0, 1), ((2, 5), (3, 3)))
        sub = Subspace(SearchSpaceSpec(3, 6), (), {2: 0}, (sc,))
        assert materialize(sub, [0]).choices == (2, 5, 0)
        assert materialize(sub, [1]).choices == (3, 3, 0)

    def test_missing_position_errors(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1), {2: 4})
        with pytest.raises(ValueError, match=r"shape \(n, 2\), got \(1, 1\)"):
            materialize(sub, [1])

    def test_out_of_range_errors(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1), {2: 4})
        for row in ([1, 6], [1, -1]):
            with pytest.raises(ValueError, match=r"slot \(1,\) is outside \[0, 6\)"):
                materialize(sub, row)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_extract_materialize_identity(self, data):
        L = data.draw(st.integers(2, 5))
        O = data.draw(st.integers(2, 5))
        spec = SearchSpaceSpec(L, O)
        positions = list(range(L))
        n_free = data.draw(st.integers(1, L))
        free = tuple(positions[:n_free])
        rest = positions[n_free:]
        sc_cells: tuple[SuperCell, ...] = ()
        if len(rest) >= 2:
            k = data.draw(st.integers(1, 3))
            cands = set()
            while len(cands) < k:
                cands.add(tuple(data.draw(st.integers(0, O - 1)) for _ in range(2)))
            sc_cells = (SuperCell(tuple(rest[:2]), tuple(sorted(cands))),)
            rest = rest[2:]
        fixed = {p: data.draw(st.integers(0, O - 1)) for p in rest}
        sub = Subspace(spec, free, fixed, sc_cells)
        index = data.draw(st.integers(0, sub.node_count - 1))
        row = tuple(sub.digits([index])[0].tolist())
        assert extract_digits(sub, materialize(sub, row)) == row


class TestCodec:
    """``Subspace.digits``, ``index`` and ``choices`` give the same values as
    the scalar, one-slot-at-a-time references, on every node."""

    @settings(max_examples=80, deadline=None)
    @given(subspaces())
    @example(ALL_FIXED)
    def test_matches_scalar_references(self, sub):
        ids = np.arange(sub.node_count)
        digits = sub.digits(ids)
        want = [digits_of_reference(sub, i) for i in range(sub.node_count)]
        assert digits.shape == (sub.node_count, len(sub.slots))
        assert np.array_equal(digits, np.array(want, dtype=np.int64).reshape(digits.shape))
        assert np.array_equal(sub.index(digits), ids)
        assert [index_of_reference(sub, row) for row in want] == ids.tolist()
        choices = sub.choices(digits)
        assert choices.dtype == np.int64
        assert np.array_equal(choices, [materialize_reference(sub, row) for row in want])

    def test_supercell_between_free_cells(self):
        sc = SuperCell((1, 2), ((0, 1), (4, 4), (2, 3)))
        sub = Subspace(SearchSpaceSpec(5, 5), (0, 4), {3: 2}, (sc,))
        assert [s.positions for s in sub.slots] == [(0,), (1, 2), (4,)]
        assert sub.slots[1].options == sc.candidates and sub.slots[1].radix == 3
        assert sub.choices([[4, 1, 0], [0, 2, 3]]).tolist() == [[4, 4, 4, 2, 0], [0, 2, 3, 2, 3]]
        assert sub.index([[4, 1, 0], [0, 2, 3]]).tolist() == [4 * 15 + 1 * 5, 2 * 5 + 3]

    def test_checks_digit_rows(self):
        sub = Subspace(SearchSpaceSpec(3, 6), (0, 1), {2: 4})
        for bad in ([1, 2], [[1, 2, 3]], [[1]], [[[1, 2]]]):
            with pytest.raises(ValueError, match="shape"):
                sub.index(bad)
            with pytest.raises(ValueError, match="shape"):
                sub.choices(bad)
        for bad in ([[0, 6]], [[-1, 0]]):
            with pytest.raises(ValueError, match="outside"):
                sub.index(bad)
            with pytest.raises(ValueError, match="outside"):
                sub.choices(bad)


class TestSegmentPlan:
    def test_default_plan(self):
        plan = make_segment_plan(default_space(), [7, 6, 6])
        assert plan.segments == (
            tuple(range(0, 7)),
            tuple(range(7, 13)),
            tuple(range(13, 19)),
        )

    def test_single_segment(self):
        plan = make_segment_plan(SearchSpaceSpec(6, 6), [6])
        assert plan.segments == (tuple(range(6)),)

    def test_sum_mismatch(self):
        with pytest.raises(ValueError, match="20"):
            make_segment_plan(default_space(), [7, 7, 6])

    def test_disjoint_cover_enforced(self):
        with pytest.raises(ValueError):
            SegmentPlan(((0, 1), (1, 2)), 3)
        with pytest.raises(ValueError):
            SegmentPlan(((0, 1),), 3)

    def test_full_subspace(self):
        sub = full_subspace(SearchSpaceSpec(4, 3))
        assert sub.node_count == 81
        assert sub.free_positions == (0, 1, 2, 3)
