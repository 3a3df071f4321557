"""Tests for the declarative experiment-grid runner (repro.harness.grid)."""

import json

import pytest

from repro.harness.grid import (
    GRID_AXES,
    GRID_BACKENDS,
    TRIALS,
    ExperimentGrid,
    GridCell,
    GridRunner,
)
from repro.parallel.shm import SharedMemoryExecutor
from repro.telemetry.bench import BenchRecorder
from tests.conftest import segment_exists

TINY_WORKLOAD = {
    "read_count": 6,
    "read_length": 200,
    "genome_length": 20_000,
    "seed": 1,
}

# Correctness (identical alignments) is the real gate in these tests; the
# throughput floor is far below any plausible ratio so timing noise cannot
# flake them.
TINY_FLOOR = 0.01


def tiny_gate(**overrides):
    gate = {
        "metric": "pairs_per_second",
        "cell": {"backend": "vectorized"},
        "reference_cell": {"backend": "serial"},
        "floor": TINY_FLOOR,
    }
    gate.update(overrides)
    return gate


def tiny_spec(**overrides):
    spec = {
        "name": "unit_grid",
        "workloads": {"tiny": dict(TINY_WORKLOAD)},
        "backends": ["serial", "vectorized"],
        "window_sizes": [64],
        "wave_sizes": [32],
        "gates": [tiny_gate()],
    }
    spec.update(overrides)
    return spec


@pytest.fixture
def bench_path(tmp_path):
    path = tmp_path / "BENCH_grid.json"
    path.write_text("{}\n")
    return path


class TestExperimentGridSpec:
    def test_from_dict_roundtrip(self):
        grid = ExperimentGrid.from_dict(tiny_spec())
        assert grid.name == "unit_grid"
        assert grid.backends == ["serial", "vectorized"]
        assert grid.gates == [tiny_gate()]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown grid spec keys"):
            ExperimentGrid.from_dict(tiny_spec(typo_axis=[1]))

    def test_name_and_workloads_required(self):
        with pytest.raises(ValueError, match="'name' and 'workloads'"):
            ExperimentGrid.from_dict({"workloads": {"w": {}}})
        with pytest.raises(ValueError):
            ExperimentGrid.from_dict({"name": "x"})

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError, match="at least one workload"):
            ExperimentGrid(name="x", workloads={})

    def test_gate_keys_validated(self):
        with pytest.raises(ValueError, match="missing"):
            ExperimentGrid.from_dict(tiny_spec(gates=[{"metric": "pairs_per_second"}]))

    def test_cells_cartesian_product_in_axis_order(self):
        # Wave sizes cross only the backends that read them.
        grid = ExperimentGrid.from_dict(
            tiny_spec(backends=["serial", "vectorized"], wave_sizes=[32, 64], gates=[])
        )
        assert grid.cells() == [
            GridCell("tiny", "serial", 64, None),
            GridCell("tiny", "vectorized", 64, 32),
            GridCell("tiny", "vectorized", 64, 64),
        ]

    @pytest.mark.parametrize("backend", ["serial", "shared"])
    def test_wave_blind_backend_gets_one_cell_per_window(self, backend):
        grid = ExperimentGrid.from_dict(
            tiny_spec(
                backends=[backend], window_sizes=[32, 64], wave_sizes=[32, 64], gates=[]
            )
        )
        assert grid.cells() == [
            GridCell("tiny", backend, 32, None),
            GridCell("tiny", backend, 64, None),
        ]

    def test_config_for_clamps_overlap(self):
        grid = ExperimentGrid.from_dict(tiny_spec())
        base_overlap = grid.base_config.window_overlap
        assert grid.config_for(64).window_overlap == min(base_overlap, 63)
        assert grid.config_for(8).window_overlap == min(base_overlap, 7)
        assert grid.config_for(8).window_size == 8

    def test_select_cell(self):
        grid = ExperimentGrid.from_dict(tiny_spec())
        cell = grid.select_cell({"backend": "serial"})
        assert cell.backend == "serial"
        with pytest.raises(ValueError, match="unknown grid axes"):
            grid.select_cell({"lane_count": 32})
        with pytest.raises(ValueError, match="matches 2 cells"):
            grid.select_cell({"window_size": 64})


class TestMisdeclaredGridRejectedAtConstruction:
    """A misdeclared spec fails before any cell runs or any row is saved."""

    def test_unknown_backend_cell_raises(self):
        with pytest.raises(ValueError, match=r"unknown backends \['proces'\]"):
            ExperimentGrid.from_dict(tiny_spec(backends=["serial", "proces"], gates=[]))

    @pytest.mark.parametrize("axis", ["window_sizes", "wave_sizes"])
    @pytest.mark.parametrize("bad", [0, -64])
    def test_non_positive_size_rejected(self, axis, bad):
        with pytest.raises(ValueError, match=f"{axis} must be positive integers"):
            ExperimentGrid.from_dict(tiny_spec(**{axis: [64, bad]}))

    @pytest.mark.parametrize("axis", ["window_sizes", "wave_sizes"])
    def test_repeated_size_rejected(self, axis):
        with pytest.raises(ValueError, match=f"{axis} repeats a value"):
            ExperimentGrid.from_dict(tiny_spec(**{axis: [64, 64]}))

    @pytest.mark.parametrize("selector", ["cell", "reference_cell"])
    def test_gate_selector_matching_no_cell_rejected(self, selector):
        gate = tiny_gate(**{selector: {"backend": "vectorised"}})
        with pytest.raises(ValueError, match="matches 0 cells"):
            ExperimentGrid.from_dict(tiny_spec(gates=[gate]))

    def test_gate_selector_matching_two_cells_rejected(self):
        gate = tiny_gate(cell={"window_size": 64})
        with pytest.raises(ValueError, match="matches 2 cells"):
            ExperimentGrid.from_dict(tiny_spec(gates=[gate]))

    def test_missing_floor_rejected(self):
        gate = tiny_gate()
        del gate["floor"]
        with pytest.raises(ValueError, match=r"missing \['floor'\]"):
            ExperimentGrid.from_dict(tiny_spec(gates=[gate]))

    @pytest.mark.parametrize("floor", [0, -0.5, "0.55", True])
    def test_non_positive_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="floor must be a positive number"):
            ExperimentGrid.from_dict(tiny_spec(gates=[tiny_gate(floor=floor)]))

    @pytest.mark.parametrize("name", ["process", "service", "gpu"])
    def test_retired_backend_names_rejected(self, name):
        with pytest.raises(ValueError) as excinfo:
            ExperimentGrid.from_dict(tiny_spec(backends=[name], gates=[]))
        assert all(valid in str(excinfo.value) for valid in GRID_BACKENDS)


class TestCellAligners:
    """Each cell calls the one batch aligner its backend names."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Outermost aligner calls as (backend, aligner); nested ones are not recorded."""
        from repro.batch.engine import BatchAlignmentEngine
        from repro.core.aligner import GenASMAligner
        from repro.pipeline import StreamingPipeline

        recorded, depth = [], [0]

        def spy(cls, method, backend):
            original = getattr(cls, method)

            def wrapper(self, pairs, **kwargs):
                if not depth[0]:
                    recorded.append((backend, self))
                depth[0] += 1
                try:
                    return original(self, pairs, **kwargs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(cls, method, wrapper)

        spy(GenASMAligner, "align_batch", "serial")
        spy(BatchAlignmentEngine, "align_pairs", "vectorized")
        spy(SharedMemoryExecutor, "run_alignments", "shared")
        spy(StreamingPipeline, "align_pairs", "streaming")
        return recorded

    @staticmethod
    def cell_calls(calls):
        # The runner's own reference run is the engine named "<grid>-reference".
        return [
            (backend, aligner)
            for backend, aligner in calls
            if not str(getattr(aligner, "name", "")).endswith("-reference")
        ]

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "shared", "streaming"])
    def test_cell_calls_the_aligner_it_names(self, bench_path, calls, backend):
        grid = ExperimentGrid.from_dict(tiny_spec(backends=[backend], gates=[]))
        (row,) = GridRunner(grid, bench_path).run(append=False, save=False)
        assert row["backend"] == backend and row["identical"]
        assert [name for name, _ in self.cell_calls(calls)] == [backend] * TRIALS

    @pytest.mark.parametrize(
        "backend, attribute", [("vectorized", "max_lanes"), ("streaming", "wave_size")]
    )
    def test_wave_size_reaches_the_aligner(self, bench_path, calls, backend, attribute):
        grid = ExperimentGrid.from_dict(
            tiny_spec(backends=[backend], wave_sizes=[4, 32], gates=[])
        )
        rows = GridRunner(grid, bench_path).run(append=False, save=False)
        assert all(row["identical"] for row in rows)
        sizes = [getattr(aligner, attribute) for _, aligner in self.cell_calls(calls)]
        assert sizes == [4] * TRIALS + [32] * TRIALS


class TestGridRunner:
    @pytest.fixture(scope="class")
    def run_result(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_grid.json"
        path.write_text("{}\n")
        grid = ExperimentGrid.from_dict(tiny_spec())
        runner = GridRunner(grid, path)
        rows = runner.run()
        return grid, runner, rows, path

    def test_one_row_per_cell_with_axis_values(self, run_result):
        grid, _, rows, _ = run_result
        assert len(rows) == len(grid.cells())
        for row, cell in zip(rows, grid.cells()):
            assert all(row[axis] == getattr(cell, axis) for axis in GRID_AXES)
            assert row["pairs"] > 0
            assert row["pairs_per_second"] > 0
            assert row["identical"] is True
            assert 0.0 <= row["mean_identity"] <= 1.0

    def test_rows_report_median_of_trials(self, run_result):
        _, _, rows, _ = run_result
        for row in rows:
            assert row["trials"] == TRIALS
            assert row["min_seconds"] <= row["seconds"] <= row["max_seconds"]
            assert row["pairs_per_second"] == pytest.approx(
                row["pairs"] / row["seconds"], rel=0.01
            )

    def test_rows_persisted_with_provenance(self, run_result):
        grid, _, rows, path = run_result
        data = json.loads(path.read_text())
        stored = data["grid_history"]
        assert len(stored) == len(rows)
        for row in stored:
            assert row["date"] and row["git_sha"]
            assert row["config_fingerprint"]
            assert row["grid"] == grid.name

    def test_check_passes_gate(self, run_result):
        _, runner, rows, _ = run_result
        verdict = runner.check(rows)
        assert verdict["ok"] is True
        assert verdict["non_identical"] == 0
        (gate,) = verdict["gates"]
        assert gate["metric"] == "pairs_per_second"
        assert gate["value"] > 0 and gate["reference_value"] > 0
        assert gate["ratio"] == pytest.approx(gate["value"] / gate["reference_value"])
        assert gate["floor"] == pytest.approx(TINY_FLOOR)
        assert gate["ok"] is True

    def test_each_gate_compares_with_its_own_floor(self, run_result, bench_path):
        _, _, rows, _ = run_result
        grid = ExperimentGrid.from_dict(
            tiny_spec(gates=[tiny_gate(), tiny_gate(floor=1e9)])
        )
        verdict = GridRunner(grid, bench_path).check(rows)
        assert [gate["ok"] for gate in verdict["gates"]] == [True, False]
        assert [gate["floor"] for gate in verdict["gates"]] == [TINY_FLOOR, 1e9]
        assert verdict["ok"] is False

    def test_check_fails_on_non_identical_cell(self, run_result):
        _, runner, rows, _ = run_result
        broken = [dict(row) for row in rows]
        broken[0]["identical"] = False
        verdict = runner.check(broken)
        assert verdict["ok"] is False
        assert verdict["non_identical"] == 1

    def test_check_without_gate(self, run_result, bench_path):
        _, _, rows, _ = run_result
        grid = ExperimentGrid.from_dict(tiny_spec(gates=[]))
        verdict = GridRunner(grid, bench_path).check(rows)
        assert verdict == {"ok": True, "gates": [], "non_identical": 0}

    def test_run_without_append_leaves_file_untouched(self, bench_path):
        grid = ExperimentGrid.from_dict(tiny_spec(backends=["vectorized"], gates=[]))
        before = bench_path.read_text()
        rows = GridRunner(grid, bench_path).run(append=False)
        assert len(rows) == 1
        assert bench_path.read_text() == before

    def test_rows_record_the_backend_that_ran(self, bench_path):
        # One row per declared backend, each matching the reference.
        grid = ExperimentGrid.from_dict(
            tiny_spec(backends=["serial", "vectorized", "shared", "streaming"], gates=[])
        )
        rows = GridRunner(grid, bench_path).run(append=False)
        assert [row["backend"] for row in rows] == list(grid.backends)
        assert all(row["identical"] for row in rows)

    def test_recorder_instance_accepted(self, bench_path):
        recorder = BenchRecorder(bench_path)
        grid = ExperimentGrid.from_dict(tiny_spec(backends=["serial"], gates=[]))
        runner = GridRunner(grid, recorder)
        assert runner.recorder is recorder


class TestSharedCellPool:
    """The shared cells' pool leaves no segment behind, however run() ends."""

    @pytest.fixture
    def pools(self, monkeypatch):
        created = []
        real_init = SharedMemoryExecutor.__init__

        def spy_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            created.append(self)

        monkeypatch.setattr(SharedMemoryExecutor, "__init__", spy_init)
        return created

    @staticmethod
    def assert_closed_without_leaks(pools):
        assert len(pools) == 1  # one pool per window size
        (pool,) = pools
        assert not pool.started
        assert pool.segment_names()  # the shared cells really sent waves
        assert not [name for name in pool.segment_names() if segment_exists(name)]

    def test_pool_closed_when_run_returns(self, bench_path, pools):
        grid = ExperimentGrid.from_dict(
            tiny_spec(backends=["shared"], wave_sizes=[32, 64], gates=[])
        )
        rows = GridRunner(grid, bench_path).run(append=False)
        assert [row["backend"] for row in rows] == ["shared"]
        assert all(row["identical"] for row in rows)
        self.assert_closed_without_leaks(pools)

    def test_pool_closed_when_run_raises(self, bench_path, pools, monkeypatch):
        from repro.pipeline import StreamingPipeline

        def boom(self, pairs):
            raise RuntimeError("cell failed")

        monkeypatch.setattr(StreamingPipeline, "align_pairs", boom)
        grid = ExperimentGrid.from_dict(
            tiny_spec(backends=["shared", "streaming"], gates=[])
        )
        with pytest.raises(RuntimeError, match="cell failed"):
            GridRunner(grid, bench_path).run()
        self.assert_closed_without_leaks(pools)
        assert bench_path.read_text() == "{}\n"
